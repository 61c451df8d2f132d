"""Tests for the SQL lexer."""

import pytest

from repro.db.errors import SqlSyntaxError
from repro.db.sql.lexer import Token, TokenType, tokenize


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]  # drop END


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("SELECT select SeLeCt") == [
            (TokenType.KEYWORD, "select")
        ] * 3

    def test_identifiers_keep_spelling(self):
        assert kinds("Station")[0] == (TokenType.IDENT, "Station")

    def test_end_token_present(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.END

    def test_empty_input(self):
        assert tokenize("") == [Token(TokenType.END, None, 0)]

    def test_semicolon_ignored(self):
        assert kinds("select;") == [(TokenType.KEYWORD, "select")]


class TestNumbers:
    def test_integer(self):
        assert kinds("42") == [(TokenType.NUMBER, 42)]

    def test_float(self):
        assert kinds("4.25") == [(TokenType.NUMBER, 4.25)]

    def test_scientific(self):
        assert kinds("1e3") == [(TokenType.NUMBER, 1000.0)]
        assert kinds("2.5E-2") == [(TokenType.NUMBER, 0.025)]

    def test_leading_dot(self):
        assert kinds(".5") == [(TokenType.NUMBER, 0.5)]

    def test_number_then_dot_ident(self):
        # "1.5.x" style is not valid, but "D.x" after number should split
        tokens = kinds("1 .")
        assert tokens[0] == (TokenType.NUMBER, 1)


class TestStrings:
    def test_simple(self):
        assert kinds("'ISK'") == [(TokenType.STRING, "ISK")]

    def test_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_empty_string(self):
        assert kinds("''") == [(TokenType.STRING, "")]

    def test_unterminated_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_timestamp_literal(self):
        assert kinds("'2010-01-12T00:00:00.000'") == [
            (TokenType.STRING, "2010-01-12T00:00:00.000")
        ]


class TestOperators:
    def test_two_char_operators(self):
        assert kinds("<= >= <>") == [
            (TokenType.OPERATOR, "<="),
            (TokenType.OPERATOR, ">="),
            (TokenType.OPERATOR, "<>"),
        ]

    def test_not_equal_alias(self):
        assert kinds("!=") == [(TokenType.OPERATOR, "<>")]

    def test_punctuation(self):
        assert kinds("( ) , . *") == [
            (TokenType.PUNCT, "("),
            (TokenType.PUNCT, ")"),
            (TokenType.PUNCT, ","),
            (TokenType.PUNCT, "."),
            (TokenType.PUNCT, "*"),
        ]

    def test_unknown_character(self):
        with pytest.raises(SqlSyntaxError) as err:
            tokenize("select @")
        assert err.value.position == 7


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("select -- comment\n 1") == [
            (TokenType.KEYWORD, "select"),
            (TokenType.NUMBER, 1),
        ]

    def test_comment_at_eof(self):
        assert kinds("1 -- trailing") == [(TokenType.NUMBER, 1)]


class TestQuotedIdentifiers:
    def test_quoted_identifier(self):
        assert kinds('"weird name"') == [(TokenType.IDENT, "weird name")]

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SqlSyntaxError):
            tokenize('"oops')

    def test_doubled_quote_is_one_quote(self):
        assert kinds('"uri""n" x') == [
            (TokenType.IDENT, 'uri"n'),
            (TokenType.IDENT, "x"),
        ]

    def test_doubled_quote_names_no_other_column(self, ali_db):
        from repro.db.errors import BindError

        with pytest.raises(BindError, match='unknown column uri"n'):
            ali_db.execute('SELECT "uri""n" FROM F LIMIT 1')

    def test_unterminated_after_a_doubled_quote(self):
        with pytest.raises(SqlSyntaxError) as raised:
            tokenize('SELECT "uri""')
        assert raised.value.position == 7


def test_positions_recorded():
    tokens = tokenize("select x")
    assert tokens[0].position == 0
    assert tokens[1].position == 7


def test_is_keyword_helper():
    token = tokenize("select")[0]
    assert token.is_keyword("select")
    assert token.is_keyword("select", "from")
    assert not token.is_keyword("from")
