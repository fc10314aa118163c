"""Persistence fuzzing: corrupt or foreign engine files must fail typed, never half-load.

Covers the checksum envelope of engine files in :mod:`repro.io.index_store`
(truncation at every length, bit flips, digest mismatches, unknown store
versions and algorithms, malformed envelopes, schema-broken payloads: 2-D
intervals out of order or overlapping, grid cells with malformed angles or
flags, grids with only some cells assigned), the
formats the library no longer reads (pre-envelope payloads, enveloped bare
index payloads, ``repro.engine-journal/v1`` delta logs), and the CLI's
``suggest --load-index`` / ``maintain --load-index`` error paths (missing,
corrupt, wrong-kind files → actionable message on stderr and exit code 2,
never a traceback).
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import (
    ENGINE_FORMAT,
    ApproxConfig,
    TwoDConfig,
    create_engine,
    engine_from_payload,
)
from repro.data.synthetic import make_compas_like
from repro.exceptions import ConfigurationError, IndexIntegrityError
from repro.fairness.proportional import ProportionalOracle
from repro.io.index_store import (
    STORE_FORMAT,
    load_engine,
    payload_checksum,
    read_store_digest,
    save_engine,
    two_d_index_to_dict,
)
from repro.ranking.scoring import LinearScoringFunction


@pytest.fixture(scope="module")
def engine_file(tmp_path_factory):
    """A saved, preprocessed 2-D engine plus the oracle needed to reload it."""
    dataset = make_compas_like(n=60, seed=11).project(
        ["c_days_from_compas", "juv_other_count"]
    )
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.40
    )
    engine = create_engine(dataset, oracle, TwoDConfig()).preprocess()
    path = tmp_path_factory.mktemp("store") / "engine.json"
    save_engine(engine, path)
    return path, oracle, engine


@pytest.fixture(scope="module")
def three_interval_engine():
    """A preprocessed 2-D engine whose index holds three satisfactory intervals."""
    dataset = make_compas_like(n=120, seed=11).project(
        ["c_days_from_compas", "juv_other_count"]
    )
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.15
    )
    engine = create_engine(dataset, oracle, TwoDConfig()).preprocess()
    assert len(engine.index.intervals) == 3
    return engine, oracle


@pytest.fixture(scope="module")
def grid_engine():
    """A preprocessed d = 3 grid engine with 16 cells, every one assigned."""
    dataset = make_compas_like(n=60, seed=11).project(
        ["c_days_from_compas", "juv_other_count", "start"]
    )
    oracle = ProportionalOracle.at_most_share_plus_slack(
        dataset, "race", "African-American", k=0.3, slack=0.10
    )
    engine = create_engine(
        dataset, oracle, ApproxConfig(n_cells=16, max_hyperplanes=20)
    ).preprocess()
    assert all(angles is not None for angles in engine.index.assigned_angles)
    return engine, oracle


def _flip_bit(text: str, char_index: int, bit: int = 0) -> str:
    data = bytearray(text.encode("utf-8"))
    data[char_index] ^= 1 << bit
    return data.decode("utf-8", errors="replace")


def _write_envelope(path, payload: dict):
    """Write ``payload`` inside a valid checksum envelope, as save_engine would."""
    document = {
        "format": STORE_FORMAT,
        "algorithm": "sha256",
        "digest": payload_checksum(payload),
        "payload": payload,
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


#: Each format this version no longer reads: the typed error it raises now and
#: the format that error names as expected.
RETIRED_FORMATS = {
    "pre-envelope-engine": (IndexIntegrityError, STORE_FORMAT),
    "pre-envelope-index": (IndexIntegrityError, STORE_FORMAT),
    "enveloped-index": (ConfigurationError, ENGINE_FORMAT),
    "engine-journal": (ConfigurationError, ENGINE_FORMAT),
}


#: Edits of a 2-D payload's intervals that break its schema, each with a
#: pattern of the error it must raise; the last two name the first bad pair.
BROKEN_INTERVALS = {
    "intervals-not-a-list": (lambda intervals: "nope", "malformed"),
    "intervals-reversed": (
        lambda intervals: intervals[::-1],
        r"intervals 0 \[.*\] and 1 \[.*\] are out of order or overlap",
    ),
    "interval-overlapping": (
        lambda intervals: [*intervals, intervals[1]],
        r"intervals 2 \[.*\] and 3 \[.*\] are out of order or overlap",
    ),
}


#: Edits of a grid payload's index that break its schema: the field, the
#: entry, how it changes, and a pattern of the error (which names the cell).
BROKEN_GRIDS = {
    "row-one-short": ("assigned_angles", 5, lambda row: row[:-1], "cell 5 is assigned"),
    "row-one-long": ("assigned_angles", 5, lambda row: [*row, 0.5], "cell 5 is assigned"),
    "row-outside-box": ("assigned_angles", 5, lambda row: [5.0, -3.0], "cell 5 is assigned"),
    "row-not-finite": (
        "assigned_angles", 5, lambda row: [float("nan"), 0.5], "cell 5 is assigned"
    ),
    "partly-assigned": (
        "assigned_angles", 5, lambda row: None, "cell 5 has no assigned function"
    ),
    "marked-too-short": (
        "marked", slice(3, None), lambda flags: [], "'marked' must be a list of 16 booleans"
    ),
    "marked-not-boolean": ("marked", 2, lambda flag: 1, "cell 2's 'marked' flag 1 is not"),
}


def _retired_format_file(kind: str, engine, directory):
    """A file in one of the :data:`RETIRED_FORMATS`, as earlier versions wrote it."""
    path = directory / f"{kind}.json"
    if kind == "pre-envelope-engine":
        path.write_text(json.dumps(engine.to_payload()), encoding="utf-8")
    elif kind == "pre-envelope-index":
        path.write_text(json.dumps(two_d_index_to_dict(engine.index)), encoding="utf-8")
    elif kind == "enveloped-index":
        _write_envelope(path, two_d_index_to_dict(engine.index))
    else:
        journal = {
            "format": "repro.engine-journal/v1",
            "base": engine.to_payload(),
            "deltas": [],
        }
        _write_envelope(path, journal)
    return path


# --------------------------------------------------------------------------- #
# the envelope itself
# --------------------------------------------------------------------------- #
class TestChecksumEnvelope:
    def test_round_trip_preserves_the_index(self, engine_file):
        path, oracle, engine = engine_file
        loaded = load_engine(path, oracle)
        assert loaded.index.intervals == engine.index.intervals
        assert loaded.index.oracle_calls == engine.index.oracle_calls

    def test_saved_file_carries_a_verifiable_envelope(self, engine_file):
        path, _, _ = engine_file
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["format"] == STORE_FORMAT
        assert document["algorithm"] == "sha256"
        assert document["digest"] == payload_checksum(document["payload"])
        assert document["payload"]["format"] == ENGINE_FORMAT
        assert read_store_digest(path) == document["digest"]

    def test_checksum_is_formatting_independent(self, engine_file):
        _, _, engine = engine_file
        payload = engine.to_payload()
        reordered = dict(reversed(list(payload.items())))
        assert payload_checksum(payload) == payload_checksum(reordered)


# --------------------------------------------------------------------------- #
# fuzzing: every corruption is a typed error, never a partial engine
# --------------------------------------------------------------------------- #
class TestCorruptionFuzz:
    @pytest.fixture()
    def store_file(self, engine_file, tmp_path):
        """A private copy of the engine file, free to corrupt."""
        path, oracle, _ = engine_file
        copy = tmp_path / "engine.json"
        copy.write_bytes(path.read_bytes())
        return copy, oracle

    def test_truncation_at_any_length_is_typed(self, store_file):
        path, oracle = store_file
        text = path.read_text(encoding="utf-8")
        for keep in range(len(text)):
            path.write_text(text[:keep], encoding="utf-8")
            with pytest.raises(IndexIntegrityError) as excinfo:
                load_engine(path, oracle)
            assert excinfo.value.hint  # always tells the user what to do

    def test_bit_flips_in_the_payload_are_typed(self, store_file):
        path, oracle = store_file
        text = path.read_text(encoding="utf-8")
        original = json.loads(text)["payload"]
        payload_start = text.index('"payload"')
        rng = np.random.default_rng(0)
        for _ in range(25):
            char_index = int(rng.integers(payload_start, len(text) - 1))
            bit = int(rng.integers(0, 7))
            flipped = _flip_bit(text, char_index, bit)
            path.write_text(flipped, encoding="utf-8")
            # Either the JSON breaks (corrupt/truncated) or the digest no
            # longer matches — both must surface as the same typed error.
            try:
                load_engine(path, oracle)
            except IndexIntegrityError:
                continue
            # Only a flip the parser cannot see may load: a float's last
            # digit changed to one that rounds to the same double.
            assert json.loads(flipped)["payload"] == original

    def test_digest_mismatch_names_both_digests(self, store_file):
        path, oracle = store_file
        document = json.loads(path.read_text(encoding="utf-8"))
        document["payload"]["index"]["oracle_calls"] = 999  # hand-edit
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexIntegrityError, match="integrity check"):
            load_engine(path, oracle)

    def test_unknown_store_version_is_typed(self, store_file):
        path, oracle = store_file
        document = json.loads(path.read_text(encoding="utf-8"))
        document["format"] = "repro.store/v9"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexIntegrityError, match="repro.store/v9"):
            load_engine(path, oracle)

    def test_unknown_algorithm_is_typed(self, store_file):
        path, oracle = store_file
        document = json.loads(path.read_text(encoding="utf-8"))
        document["algorithm"] = "crc32"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexIntegrityError, match="crc32"):
            load_engine(path, oracle)

    @pytest.mark.parametrize("missing", ["payload", "digest"])
    def test_malformed_envelope_is_typed(self, store_file, missing):
        path, oracle = store_file
        document = json.loads(path.read_text(encoding="utf-8"))
        del document[missing]
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IndexIntegrityError, match="malformed checksum envelope"):
            load_engine(path, oracle)

    @pytest.mark.parametrize("edit", sorted(BROKEN_INTERVALS))
    def test_checksummed_but_schema_broken_payload_is_configuration_error(
        self, three_interval_engine, tmp_path, edit
    ):
        # A valid envelope around a nonsense payload is not *corruption* —
        # the digest matches what was written — so the schema layer reports it.
        engine, oracle = three_interval_engine
        payload = engine.to_payload()
        broken, pattern = BROKEN_INTERVALS[edit]
        payload["index"]["intervals"] = broken(payload["index"]["intervals"])
        path = _write_envelope(tmp_path / "engine.json", payload)
        with pytest.raises(ConfigurationError, match=pattern) as excinfo:
            load_engine(path, oracle)
        assert not isinstance(excinfo.value, IndexIntegrityError)

    @pytest.mark.parametrize("edit", ["intervals-reversed", "interval-overlapping"])
    def test_unordered_intervals_are_refused_by_engine_from_payload(
        self, three_interval_engine, edit
    ):
        engine, oracle = three_interval_engine
        payload = engine.to_payload()
        broken, pattern = BROKEN_INTERVALS[edit]
        payload["index"]["intervals"] = broken(payload["index"]["intervals"])
        with pytest.raises(ConfigurationError, match=pattern):
            engine_from_payload(payload, oracle)

    @pytest.mark.parametrize("route", ["load_engine", "engine_from_payload"])
    @pytest.mark.parametrize("edit", sorted(BROKEN_GRIDS))
    def test_malformed_grid_payload_is_configuration_error(
        self, grid_engine, tmp_path, edit, route
    ):
        engine, oracle = grid_engine
        payload = engine.to_payload()
        field, entry, change, pattern = BROKEN_GRIDS[edit]
        entries = payload["index"][field]
        entries[entry] = change(entries[entry])
        with pytest.raises(ConfigurationError, match=pattern) as excinfo:
            if route == "load_engine":
                load_engine(_write_envelope(tmp_path / "engine.json", payload), oracle)
            else:
                engine_from_payload(payload, oracle)
        assert not isinstance(excinfo.value, IndexIntegrityError)


class TestEngineFileCorruption:
    def test_round_trip_answers_identically(self, engine_file):
        path, oracle, engine = engine_file
        restored = load_engine(path, oracle)
        function = LinearScoringFunction((0.9, 0.1))
        assert restored.suggest(function) == engine.suggest(function)

    def test_bit_flipped_engine_file_is_typed(self, engine_file, tmp_path):
        path, oracle, _ = engine_file
        text = path.read_text(encoding="utf-8")
        payload_start = text.index('"payload"')
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(
            _flip_bit(text, payload_start + 40, bit=1), encoding="utf-8"
        )
        with pytest.raises(IndexIntegrityError):
            load_engine(corrupt, oracle)

    @pytest.mark.parametrize("kind", sorted(RETIRED_FORMATS))
    def test_retired_format_is_rejected_by_load_engine(self, engine_file, tmp_path, kind):
        _, oracle, engine = engine_file
        error, expected_format = RETIRED_FORMATS[kind]
        path = _retired_format_file(kind, engine, tmp_path)
        with pytest.raises(error, match=re.escape(repr(expected_format))):
            load_engine(path, oracle)

    def test_read_store_digest_requires_an_envelope(self, engine_file, tmp_path):
        _, _, engine = engine_file
        path = _retired_format_file("pre-envelope-engine", engine, tmp_path)
        with pytest.raises(IndexIntegrityError, match=re.escape(repr(STORE_FORMAT))):
            read_store_digest(path)

    def test_arbitrary_json_is_rejected_by_load_engine(self, engine_file, tmp_path):
        _, oracle, _ = engine_file
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a serialised engine"):
            load_engine(path, oracle)


# --------------------------------------------------------------------------- #
# CLI error paths: actionable message + exit 2, no traceback
# --------------------------------------------------------------------------- #
_CONSTRAINT = [
    "--attribute",
    "race",
    "--group",
    "African-American",
    "--k",
    "0.3",
    "--max-share",
    "0.6",
]

#: Each subcommand that reads an engine file, up to its ``--load-index`` flag.
_LOAD_INDEX_ARGV = {
    "suggest": ["suggest", *_CONSTRAINT, "--weights", "0.9,0.1", "--load-index"],
    "maintain": ["maintain", *_CONSTRAINT, "--load-index"],
}


class TestCliLoadIndexErrors:
    @pytest.fixture(params=sorted(_LOAD_INDEX_ARGV))
    def argv(self, request):
        return _LOAD_INDEX_ARGV[request.param]

    def test_missing_file(self, argv, tmp_path, capsys):
        code = main(argv + [str(tmp_path / "nowhere.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "does not exist" in captured.err
        assert "--save-index" in captured.err
        assert "Traceback" not in captured.err

    def test_directory_instead_of_file(self, argv, tmp_path, capsys):
        code = main(argv + [str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "directory" in captured.err

    def test_corrupt_file(self, argv, engine_file, tmp_path, capsys):
        path, _, _ = engine_file
        text = path.read_text(encoding="utf-8")
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(text[: len(text) // 2], encoding="utf-8")
        code = main(argv + [str(corrupt)])
        captured = capsys.readouterr()
        assert code == 2
        assert "corrupt or truncated" in captured.err
        assert "rebuild" in captured.err  # the hint reaches the user
        assert "Traceback" not in captured.err

    def test_bit_flipped_file(self, argv, engine_file, tmp_path, capsys):
        path, _, _ = engine_file
        text = path.read_text(encoding="utf-8")
        corrupt = tmp_path / "flipped.json"
        corrupt.write_text(
            _flip_bit(text, text.index('"payload"') + 40, bit=1), encoding="utf-8"
        )
        code = main(argv + [str(corrupt)])
        captured = capsys.readouterr()
        assert code == 2
        assert "integrity" in captured.err or "corrupt" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kind", sorted(RETIRED_FORMATS))
    def test_retired_format_file(self, argv, kind, engine_file, tmp_path, capsys):
        _, _, engine = engine_file
        _, expected_format = RETIRED_FORMATS[kind]
        path = _retired_format_file(kind, engine, tmp_path)
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert repr(expected_format) in captured.err
        assert "Traceback" not in captured.err
