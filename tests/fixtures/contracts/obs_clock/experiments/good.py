"""Clean twin: the experiment reads the duration of the span around its body."""
from repro.obs.trace import TraceRecorder


def timed(body) -> float:
    recorder = TraceRecorder()
    with recorder.span("experiment.body") as span:
        body()
    return span.duration
