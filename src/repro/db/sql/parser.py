"""Recursive-descent parser for the SQL subset.

Grammar (EBNF, informal):

    select    := SELECT [DISTINCT] items FROM from_clause
                 [WHERE expr] [GROUP BY exprs] [HAVING expr]
                 [ORDER BY order_items] [LIMIT number]
    items     := item ("," item)*
    item      := "*" | ident "." "*" | expr [[AS] ident]
    from      := table ([","] table | join)*
    join      := [INNER|CROSS] JOIN table [ON expr]
    table     := ident [[AS] ident]
    expr      := or ; or := and (OR and)* ; and := not (AND not)*
    not       := [NOT] predicate
    predicate := additive [cmp additive | [NOT] BETWEEN ... | [NOT] IN (...)]
    additive  := multiplicative (("+"|"-") multiplicative)*
    mult      := unary (("*"|"/"|"%") unary)*
    unary     := ["-"] primary
    primary   := literal | func "(" args ")" | column | "(" expr ")"
"""

from __future__ import annotations

from typing import Optional

from ..errors import SqlSyntaxError
from .ast import (
    EBetween,
    EBinary,
    EColumn,
    EFunc,
    EIn,
    ELiteral,
    ENode,
    EStar,
    ESubqueryIn,
    EUnary,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStmt,
    TableRef,
)
from .lexer import Token, TokenType, tokenize

AGGREGATE_FUNCTIONS = {"avg", "sum", "min", "max", "count"}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        # The token at _pos, kept as an attribute: the parser reads it
        # several times per token. Past END it stays END (nothing reads it
        # there: consuming END only happens on the way to an error).
        self._current = tokens[0]

    # -- token plumbing ----------------------------------------------------

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        if self._pos < len(self._tokens):
            self._current = self._tokens[self._pos]
        return token

    def _expect_keyword(self, name: str) -> Token:
        if not self._current.is_keyword(name):
            raise SqlSyntaxError(
                f"expected {name.upper()}, found {self._current.value!r}",
                self._current.position,
            )
        return self._advance()

    def _expect_punct(self, char: str) -> Token:
        if self._current.type is not TokenType.PUNCT or self._current.value != char:
            raise SqlSyntaxError(
                f"expected {char!r}, found {self._current.value!r}",
                self._current.position,
            )
        return self._advance()

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    def _accept_punct(self, char: str) -> bool:
        if self._current.type is TokenType.PUNCT and self._current.value == char:
            self._advance()
            return True
        return False

    def _expect_ident(self) -> str:
        if self._current.type is not TokenType.IDENT:
            raise SqlSyntaxError(
                f"expected identifier, found {self._current.value!r}",
                self._current.position,
            )
        return str(self._advance().value)

    # -- statement ----------------------------------------------------------

    def parse_select(self, top_level: bool = True) -> SelectStmt:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct") is not None
        items = self._parse_select_items()
        self._expect_keyword("from")
        from_tables, joins = self._parse_from_clause()
        where = None
        if self._accept_keyword("where"):
            where = self.parse_expr()
        group_by: list[ENode] = []
        having = None
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.parse_expr())
            while self._accept_punct(","):
                group_by.append(self.parse_expr())
            if self._accept_keyword("having"):
                having = self.parse_expr()
        order_by: list[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept_keyword("limit"):
            # Accept a sign so `LIMIT -5` gets the typed error below rather
            # than a generic complaint about an unexpected `-` token.
            negative = (
                self._current.type is TokenType.OPERATOR
                and self._current.value == "-"
            )
            if negative:
                self._advance()
            token = self._advance()
            if token.type is not TokenType.NUMBER or not isinstance(token.value, int):
                raise SqlSyntaxError("LIMIT requires an integer", token.position)
            if negative:
                raise SqlSyntaxError(
                    "LIMIT must be a non-negative integer, got "
                    f"-{token.value}",
                    token.position,
                )
            # LIMIT 0 is legal: an empty result with the query's schema.
            limit = token.value
        if top_level and self._current.type is not TokenType.END:
            raise SqlSyntaxError(
                f"unexpected trailing input {self._current.value!r}",
                self._current.position,
            )
        return SelectStmt(
            items=items,
            from_tables=from_tables,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_items(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self._current.type is TokenType.PUNCT and self._current.value == "*":
            self._advance()
            return SelectItem(EStar())
        # alias.* requires two-token lookahead
        if (
            self._current.type is TokenType.IDENT
            and self._peek_is_punct(1, ".")
            and self._peek_is_punct(2, "*")
        ):
            table = self._expect_ident()
            self._expect_punct(".")
            self._expect_punct("*")
            return SelectItem(EStar(table))
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _peek_is_punct(self, offset: int, char: str) -> bool:
        idx = self._pos + offset
        if idx >= len(self._tokens):
            return False
        token = self._tokens[idx]
        return token.type is TokenType.PUNCT and token.value == char

    def _parse_from_clause(self) -> tuple[list[TableRef], list[JoinClause]]:
        tables = [self._parse_table_ref()]
        joins: list[JoinClause] = []
        while True:
            if self._accept_punct(","):
                tables.append(self._parse_table_ref())
                continue
            if self._current.is_keyword("inner", "cross", "join"):
                cross = self._accept_keyword("cross") is not None
                self._accept_keyword("inner")
                self._expect_keyword("join")
                table = self._parse_table_ref()
                condition = None
                if not cross and self._accept_keyword("on"):
                    condition = self.parse_expr()
                joins.append(JoinClause(table, condition))
                continue
            break
        return tables, joins

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        return TableRef(name, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return OrderItem(expr, ascending)

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> ENode:
        return self._parse_or()

    def _parse_or(self) -> ENode:
        left = self._parse_and()
        while self._accept_keyword("or"):
            right = self._parse_and()
            left = EBinary("or", left, right)
        return left

    def _parse_and(self) -> ENode:
        left = self._parse_not()
        while self._accept_keyword("and"):
            right = self._parse_not()
            left = EBinary("and", left, right)
        return left

    def _parse_not(self) -> ENode:
        if self._accept_keyword("not"):
            return EUnary("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ENode:
        left = self._parse_additive()
        if self._current.type is TokenType.OPERATOR and self._current.value in (
            "=", "<>", "<", "<=", ">", ">=",
        ):
            op = str(self._advance().value)
            right = self._parse_additive()
            return EBinary(op, left, right)
        negated = False
        if self._current.is_keyword("not"):
            # NOT BETWEEN / NOT IN
            nxt = self._tokens[self._pos + 1]
            if nxt.is_keyword("between", "in"):
                self._advance()
                negated = True
        if self._accept_keyword("between"):
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return EBetween(left, low, high, negated)
        if self._accept_keyword("in"):
            self._expect_punct("(")
            if self._current.is_keyword("select"):
                subquery = self.parse_select(top_level=False)
                self._expect_punct(")")
                return ESubqueryIn(left, subquery, negated)
            items = [self.parse_expr()]
            while self._accept_punct(","):
                items.append(self.parse_expr())
            self._expect_punct(")")
            return EIn(left, tuple(items), negated)
        if negated:
            raise SqlSyntaxError(
                "NOT must be followed by BETWEEN or IN here",
                self._current.position,
            )
        return left

    def _parse_additive(self) -> ENode:
        left = self._parse_multiplicative()
        while self._current.type is TokenType.OPERATOR and self._current.value in ("+", "-"):
            op = str(self._advance().value)
            right = self._parse_multiplicative()
            left = EBinary(op, left, right)
        return left

    def _parse_multiplicative(self) -> ENode:
        left = self._parse_unary()
        while (
            self._current.type is TokenType.OPERATOR and self._current.value in ("/", "%")
        ) or (self._current.type is TokenType.PUNCT and self._current.value == "*"):
            op = str(self._advance().value)
            right = self._parse_unary()
            left = EBinary(op, left, right)
        return left

    def _parse_unary(self) -> ENode:
        if self._current.type is TokenType.OPERATOR and self._current.value == "-":
            self._advance()
            return EUnary("-", self._parse_unary())
        if self._current.type is TokenType.OPERATOR and self._current.value == "+":
            self._advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ENode:
        token = self._current
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self._advance()
            return ELiteral(token.value, self._pos - 1)
        if token.is_keyword("true"):
            self._advance()
            return ELiteral(True)
        if token.is_keyword("false"):
            self._advance()
            return ELiteral(False)
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            inner = self.parse_expr()
            self._expect_punct(")")
            return inner
        if token.type is TokenType.IDENT:
            name = self._expect_ident()
            if self._accept_punct("("):
                return self._parse_call(name)
            if self._accept_punct("."):
                column = self._expect_ident()
                return EColumn(name, column)
            return EColumn(None, name)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r}", token.position
        )

    def _parse_call(self, name: str) -> ENode:
        if self._current.type is TokenType.PUNCT and self._current.value == "*":
            self._advance()
            self._expect_punct(")")
            if name.lower() != "count":
                raise SqlSyntaxError(f"{name}(*) is only valid for COUNT")
            return EFunc("count", (), star=True)
        distinct = self._accept_keyword("distinct") is not None
        args = [self.parse_expr()]
        while self._accept_punct(","):
            args.append(self.parse_expr())
        self._expect_punct(")")
        return EFunc(name.lower(), tuple(args), distinct=distinct)


def parse_sql(text: str, tokens: Optional[list[Token]] = None) -> SelectStmt:
    """Parse one SELECT statement; raises :class:`SqlSyntaxError` otherwise.
    ``tokens``, when given, is ``tokenize(text)`` already done."""
    return _Parser(tokens if tokens is not None else tokenize(text)).parse_select()
