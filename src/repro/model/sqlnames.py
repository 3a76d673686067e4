"""Table and column names as SQL text.

A model's names come from a source catalog or a schema file, so one may
be an SQL keyword (a table ``order``, a column ``group``) or hold a
character a bare identifier cannot. :func:`sql_name` is the spelling
every statement DBSynth writes uses: the name itself when it is a plain
identifier, so the DDL and the loads of ordinary models are unchanged,
and an ANSI double-quoted identifier otherwise.
"""

from __future__ import annotations

import re

_PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: SQLite's keywords (https://www.sqlite.org/lang_keywords.html); a name
#: is compared in upper case
SQLITE_KEYWORDS = frozenset("""
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH
    AUTOINCREMENT BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE
    COLUMN COMMIT CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED
    DELETE DESC DETACH DISTINCT DO DROP EACH ELSE END ESCAPE EXCEPT EXCLUDE
    EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST FOLLOWING FOR FOREIGN FROM
    FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE IMMEDIATE IN INDEX
    INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS ISNULL JOIN KEY
    LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING NOTNULL
    NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA
    PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX
    RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS
    SAVEPOINT SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION
    TRIGGER UNBOUNDED UNION UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL
    WHEN WHERE WINDOW WITH WITHOUT
""".split())


def sql_name(name: str) -> str:
    """*name* as an SQL identifier: unchanged when it is a plain
    identifier (``[A-Za-z_][A-Za-z0-9_]*``) and no SQLite keyword, else
    double-quoted with any ``"`` in it doubled."""
    if _PLAIN.fullmatch(name) and name.upper() not in SQLITE_KEYWORDS:
        return name
    return '"' + name.replace('"', '""') + '"'
