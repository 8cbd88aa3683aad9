"""Minimal s-expression reader shared by the formula and expression parsers."""

from __future__ import annotations

from .errors import InputError

# Deepest list nesting read_all accepts.  The formula and expression
# walkers recurse once or a few times per level (an `<->` or a quantifier
# costs up to three Python frames), so this keeps them well under Python's
# default recursion limit of 1000.
MAX_DEPTH = 100


def tokenize(text: str) -> list[str]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c.isspace():
            i += 1
        elif c in "()":
            out.append(c)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def read_all(text: str) -> list:
    """Parse every top-level form; atoms are strings, lists are Python lists.
    Lists nested more than MAX_DEPTH deep are an InputError."""
    tokens = tokenize(text)
    pos = 0

    def read_form(depth):
        nonlocal pos
        if pos >= len(tokens):
            raise InputError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if depth >= MAX_DEPTH:
                raise InputError(f"s-expression nested deeper than {MAX_DEPTH} lists")
            items = []
            while True:
                if pos >= len(tokens):
                    raise InputError("unbalanced parenthesis")
                if tokens[pos] == ")":
                    pos += 1
                    return items
                items.append(read_form(depth + 1))
        if tok == ")":
            raise InputError("unexpected closing parenthesis")
        return tok

    forms = []
    while pos < len(tokens):
        forms.append(read_form(0))
    return forms


def to_int(token, what: str) -> int:
    if isinstance(token, str):
        try:
            return int(token)
        except ValueError:
            pass
    raise InputError(f"expected an integer for {what}, got {token!r}")
