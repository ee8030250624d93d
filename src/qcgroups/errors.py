"""Error types shared by all modules."""


class InvalidInputError(ValueError):
    """Raised when an operation is called outside its documented domain.

    The CLI maps this to exit status 2; a genuine mathematical failure
    (a verified property that does not hold) is reported separately and
    maps to exit status 1.
    """


def describe_int(n: int) -> str:
    """n in decimal, or its bit length when the digits would flood a message."""
    return str(n) if n.bit_length() <= 64 else f"a {n.bit_length()}-bit integer"


_QUOTE_LIMIT = 60


def quote_input(text: str) -> str:
    """text quoted for a message; past 60 characters, a prefix and the length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def too_long_to_print(n: int) -> InvalidInputError:
    """The error for an integer past Python's limit on int-to-str digits."""
    return InvalidInputError(f"{describe_int(n)} is too long to print in decimal")
