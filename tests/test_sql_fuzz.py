"""Fuzz tests: the SQL front-end never crashes with anything but its own
typed errors, no matter the input."""

from hypothesis import given, settings, strategies as st

from repro.db.errors import DatabaseError, SqlSyntaxError
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse_sql


@settings(deadline=None, max_examples=200)
@given(st.text(max_size=200))
def test_tokenizer_total(text):
    """Tokenizing arbitrary text either succeeds or raises SqlSyntaxError."""
    try:
        tokens = tokenize(text)
    except SqlSyntaxError:
        return
    assert tokens[-1].type.name == "END"


@settings(deadline=None, max_examples=200)
@given(st.text(max_size=200))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_sql(text)
    except SqlSyntaxError:
        pass


_SQLISH_TOKENS = st.sampled_from([
    "SELECT", "FROM", "WHERE", "JOIN", "ON", "GROUP", "BY", "ORDER",
    "LIMIT", "AND", "OR", "NOT", "BETWEEN", "IN", "AS", "DISTINCT",
    "AVG", "COUNT", "t", "x", "y", "F", "D", "uri", "sample_value",
    "(", ")", ",", ".", "*", "=", "<", ">", "<=", ">=", "<>", "+", "-",
    "/", "'ISK'", "'a''b'", "42", "1.5", "1e3", "--c\n",
])


@settings(deadline=None, max_examples=300)
@given(st.lists(_SQLISH_TOKENS, max_size=25))
def test_parser_total_on_sqlish_token_soup(parts):
    """Near-miss SQL (valid tokens, arbitrary order) never escapes the
    parser's own error type."""
    try:
        parse_sql(" ".join(parts))
    except SqlSyntaxError:
        pass


@settings(deadline=None, max_examples=100)
@given(parts=st.lists(_SQLISH_TOKENS, max_size=20))
def test_engine_never_crashes_uncontrolled(ali_db, parts):
    """Even when token soup parses, binding/execution fails only with the
    engine's error hierarchy."""
    sql = "SELECT " + " ".join(parts) + " FROM F"
    try:
        ali_db.execute(sql)
    except DatabaseError:
        pass
