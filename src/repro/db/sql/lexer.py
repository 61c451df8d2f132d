"""Hand-written SQL lexer.

Produces a flat token stream; the parser consumes it with one token of
lookahead. Keywords are case-insensitive; identifiers keep their spelling but
compare case-insensitively downstream.
"""

from __future__ import annotations

import enum
import re
from typing import Any, NamedTuple

from ..errors import SqlSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "join", "inner", "cross", "on", "where",
    "and", "or", "not", "group", "by", "having", "order", "asc", "desc",
    "limit", "as", "between", "in", "true", "false", "is", "null",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"  # ( ) , . *
    END = "end"

    # Members are singletons: identity hashing is C code, and a query's
    # shape key (see shape_key) hashes one type per token.
    __hash__ = object.__hash__


class Token(NamedTuple):
    """One token. A tuple, not a dataclass: a query is tens of tokens, and
    tokenizing is on every query's path."""

    type: TokenType
    value: Any
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names


# "!=" is spelled "<>" in the token stream.
_TWO_CHAR_OPERATORS = {"<=": "<=", ">=": ">=", "<>": "<>", "!=": "<>"}
_OPERATOR_CHARS = "=<>+-/%"
_PUNCT = "(),.*"
# ASCII digits only: str.isdigit() accepts Unicode digits (e.g. '¹') that
# int()/float() reject.
_DIGITS = "0123456789"
# re's \s and \w are str.isspace() and (str.isalnum() or "_") per character.
_SPACE = re.compile(r"\s+")
_WORD = re.compile(r"\w*")


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the Python-level __new__
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        # Words first, the commonest token: no other branch takes a letter.
        if ch.isalpha() or ch == "_":
            j = _WORD.match(text, i + 1).end()  # type: ignore[union-attr]
            word = text[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                append(new(Token, (TokenType.KEYWORD, lowered, i)))
            else:
                append(new(Token, (TokenType.IDENT, word, i)))
            i = j
            continue
        if ch.isspace():
            i = _SPACE.match(text, i).end()  # type: ignore[union-attr]
            continue
        if ch == "-" and text.startswith("--", i):  # line comment
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":  # string literal; '' inside it is one '
            j = i + 1
            parts: list[str] = []
            while True:
                end = text.find("'", j)
                if end == -1:
                    raise SqlSyntaxError("unterminated string literal", i)
                parts.append(text[j:end])
                if not text.startswith("'", end + 1):
                    break
                parts.append("'")
                j = end + 2
            append(new(Token, (TokenType.STRING, "".join(parts), i)))
            i = end + 1
            continue
        if ch in _DIGITS or (
            ch == "." and i + 1 < n and text[i + 1] in _DIGITS
        ):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = text[j]
                if c in _DIGITS:
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    # Only an exponent when digits actually follow.
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k] in _DIGITS:
                        seen_exp = True
                        j = k
                    else:
                        break
                else:
                    break
            raw = text[i:j]
            value: Any
            try:
                if seen_dot or seen_exp:
                    value = float(raw)
                else:
                    value = int(raw)
            except ValueError as exc:  # pragma: no cover - defensive
                raise SqlSyntaxError(f"bad numeric literal {raw!r}", i) from exc
            append(new(Token, (TokenType.NUMBER, value, i)))
            i = j
            continue
        if ch == '"':  # quoted identifier; "" inside it is one "
            j = i + 1
            parts = []
            while True:
                end = text.find('"', j)
                if end == -1:
                    raise SqlSyntaxError("unterminated quoted identifier", i)
                parts.append(text[j:end])
                if not text.startswith('"', end + 1):
                    break
                parts.append('"')
                j = end + 2
            append(new(Token, (TokenType.IDENT, "".join(parts), i)))
            i = end + 1
            continue
        if ch in _PUNCT:
            append(new(Token, (TokenType.PUNCT, ch, i)))
            i += 1
            continue
        operator = _TWO_CHAR_OPERATORS.get(text[i:i + 2])
        if operator is not None:
            append(new(Token, (TokenType.OPERATOR, operator, i)))
            i += 2
            continue
        if ch in _OPERATOR_CHARS:
            append(new(Token, (TokenType.OPERATOR, ch, i)))
            i += 1
            continue
        if ch == ";":
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    append(new(Token, (TokenType.END, None, n)))
    return tokens


_LIMIT = (TokenType.KEYWORD, "limit")
_MINUS = (TokenType.OPERATOR, "-")
_LITERALS = frozenset({TokenType.NUMBER, TokenType.STRING})
_TRUTHS = {"true": True, "false": False}


def shape_key(tokens: list[Token]) -> tuple:
    """``tokens`` with their literal values set aside: two queries with one
    key parse to ASTs that differ in their literals' values only.

    A literal token the parser turns into an expression is reduced to its
    kind (int, float or str) and its class of equal values (``==``, the
    AST's equality, which ``GROUP BY`` matching uses); ``TRUE`` and
    ``FALSE`` join those classes, since ``ELiteral(True) == ELiteral(1)``.
    Every other token is kept whole, positions aside, and so is the one
    literal the parser does not turn into an expression: the ``LIMIT``
    count, the number after ``LIMIT`` (or after ``LIMIT -``).
    """
    key = [token[:2] for token in tokens]
    classes: dict[Any, int] = {}
    for index in [
        k for k, token in enumerate(tokens)
        if token[0] in _LITERALS or token[1] in _TRUTHS
    ]:
        kind, value, _ = tokens[index]
        if kind is TokenType.KEYWORD:
            truth = _TRUTHS[value]
            key[index] = (kind, value, classes.setdefault(truth, len(classes)))
        elif kind in _LITERALS and not (
            key[index - 1] == _LIMIT
            or (index > 1 and key[index - 1] == _MINUS
                and key[index - 2] == _LIMIT)
        ):
            key[index] = (kind, type(value), classes.setdefault(value, len(classes)))
    return tuple(key)
