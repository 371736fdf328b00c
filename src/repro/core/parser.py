"""Restricted SQL parser for PREDICT queries (§6's parser extension).

Supports the UDF syntax the paper adds to SparkSQL::

    SELECT PREDICT(model_name, *) AS prediction
    FROM fact
    [JOIN dim ON fact.key = dim.key]...
    [WHERE col <op> literal [AND ...]]

Predicates on the ``prediction`` alias become the query's output filter
(the paper's ``risk_of_covid = 'high'``); everything else is a data
predicate handed to the optimizer. Models resolve through a registry
(name -> IR pipeline), standing in for "load model.onnx from HDFS".
"""
from __future__ import annotations

import re

from repro.core.predicate_pruning import Predicate
from repro.core.query import Join, PredictionQuery
from repro.ir.graph import Pipeline

_TOKEN = re.compile(
    r"\s*(?:(?P<str>'(?:[^']|'')*')|(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<op><=|>=|<>|=|<|>|\(|\)|,|\*|\.)"
    r"|(?P<word>[A-Za-z_][A-Za-z_0-9]*))"
)


def _tokenize(sql: str) -> list[tuple[str, str]]:
    out, pos = [], 0
    sql = sql.strip().rstrip(";")
    while pos < len(sql):
        m = _TOKEN.match(sql, pos)
        if not m:
            raise ValueError(f"cannot tokenize at: {sql[pos:pos + 20]!r}")
        pos = m.end()
        for kind in ("str", "num", "op", "word"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind)))
                break
    return out


class _Cursor:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "")

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        self.i += 1
        return tok

    def expect_word(self, word: str) -> None:
        kind, v = self.next()
        if kind != "word" or v.upper() != word.upper():
            raise ValueError(f"expected {word}, got {v!r}")

    def expect_op(self, op: str) -> None:
        kind, v = self.next()
        if kind != "op" or v != op:
            raise ValueError(f"expected {op!r}, got {v!r}")

    def at_word(self, word: str) -> bool:
        kind, v = self.peek()
        return kind == "word" and v.upper() == word.upper()


def parse_prediction_query(
    sql: str,
    models: dict[str, Pipeline],
    table_cols: dict[str, list[str]],
) -> PredictionQuery:
    """Parse the restricted grammar into a :class:`PredictionQuery`."""
    cur = _Cursor(_tokenize(sql))
    cur.expect_word("SELECT")
    cur.expect_word("PREDICT")
    cur.expect_op("(")
    _, model_name = cur.next()
    if model_name not in models:
        raise ValueError(f"unknown model {model_name!r}")
    cur.expect_op(",")
    cur.expect_op("*")
    cur.expect_op(")")
    alias = "prediction"
    if cur.at_word("AS"):
        cur.next()
        _, alias = cur.next()
    cur.expect_word("FROM")
    _, fact = cur.next()
    if fact not in table_cols:
        raise ValueError(f"unknown table {fact!r}")

    joins: list[Join] = []
    known_tables = {fact}
    while cur.at_word("JOIN"):
        cur.next()
        _, dim = cur.next()
        if dim not in table_cols:
            raise ValueError(f"unknown table {dim!r}")
        cur.expect_word("ON")
        t1, c1 = _qualified(cur)
        cur.expect_op("=")
        t2, c2 = _qualified(cur)
        if t1 in known_tables and t2 == dim:
            joins.append(Join(dim, c1, c2))
        elif t2 in known_tables and t1 == dim:
            joins.append(Join(dim, c2, c1))
        else:
            raise ValueError(f"join condition does not connect {dim}")
        known_tables.add(dim)

    where: list[Predicate] = []
    output_filter = None
    if cur.at_word("WHERE"):
        cur.next()
        while True:
            kind, name = cur.next()
            if kind != "word":
                raise ValueError(f"expected column, got {name!r}")
            okind, op = cur.next()
            if okind != "op" or op not in ("=", "<", "<=", ">", ">="):
                raise ValueError(f"unsupported operator {op!r}")
            vkind, raw = cur.next()
            value = (
                raw[1:-1].replace("''", "'") if vkind == "str" else float(raw)
            )
            if name == alias:
                if op != "=":
                    raise ValueError("output predicate must be an equality")
                output_filter = ("prediction", int(value))
            else:
                where.append(Predicate(name, op, value))
            if cur.at_word("AND"):
                cur.next()
                continue
            break

    kind, v = cur.peek()
    if kind != "eof":
        raise ValueError(f"unexpected trailing token {v!r}")

    return PredictionQuery(
        fact=fact,
        pipeline=models[model_name],
        joins=joins,
        where=where,
        table_cols=table_cols,
        output_filter=output_filter,
    )


def _qualified(cur: _Cursor) -> tuple[str, str]:
    _, a = cur.next()
    if cur.peek() == ("op", "."):
        cur.next()
        _, b = cur.next()
        return a, b
    raise ValueError("join keys must be table-qualified (t.col)")
