"""Fixture: a ``repro: allow-`` comment is an ordinary comment, so its line's finding fires."""


def validate(n):
    if n < 0:
        raise ValueError("negative")  # repro: allow-typed-exceptions
    return n
