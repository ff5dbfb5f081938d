"""Reads a wide ``records.csv`` back into long rows, one per record.

``records.csv`` holds one row per (t, s) key and one column per
``<check>.<tag>.<field>``. ``long_rows(path)`` yields the records as
``(check, t, s, tag, value, margin, vector)`` tuples of cell text, "" where a
record has no such cell, in record order: check order, then pairs, then
tags. Within one check, consecutive tags whose value cells fill the same rows
are read as one block of records (every record has a value), and a tag
written ``<tag>_1``, ``<tag>_2``, ... (one that repeats in its block) is read
back as ``<tag>``. The file is read once for the blocks and once per block,
so memory does not grow with it.

    python -c 'import sys; sys.path.insert(0, "tests"); import records_long as r; r.write_long(sys.argv[1], sys.argv[2])' WIDE LONG
"""
import csv
import re

LONG_COLUMNS = ("check", "t", "s", "tag", "value", "margin", "vector")
FIELDS = ("value", "margin", "vector")


def _read(path):
    with open(path, newline="") as fh:
        yield from csv.reader(fh)


def _untag(tag: str, names: list[str]) -> str:
    base = re.fullmatch(r"(.+)_\d+", tag)
    if base and {f"{base[1]}_1", f"{base[1]}_2"} <= set(names):
        return base[1]
    return tag


def long_rows(path):
    """The records of the wide ``records.csv`` at ``path``, in record order."""
    rows = _read(path)
    header = next(rows)
    assert header[:2] == ["t", "s"], header[:2]
    tags = {}  # (check, tag) -> {field: column}, in header order
    for column, name in enumerate(header[2:], 2):
        check, tag, field = name.rsplit(".", 2)
        tags.setdefault((check, tag), {})[field] = column
    filled = {key: bytearray() for key in tags}  # per row, 1 where the tag has a record
    for row in rows:
        for key, fields in tags.items():
            filled[key].append(row[fields["value"]] != "")
    blocks = []  # [check, filled rows, [(tag, fields), ...]]
    for (check, tag), fields in tags.items():
        if blocks and blocks[-1][:2] == [check, filled[check, tag]]:
            blocks[-1][2].append((tag, fields))
        else:
            blocks.append([check, filled[check, tag], [(tag, fields)]])
    for check, here, members in blocks:
        names = [tag for tag, _ in members]
        rows = _read(path)
        next(rows)
        for row, has in zip(rows, here):
            for tag, fields in members if has else ():
                yield (check, row[0], row[1], _untag(tag, names),
                       *(row[fields[f]] if f in fields else "" for f in FIELDS))


def write_long(wide, long) -> None:
    """Write the records of ``wide`` to ``long`` as the long ``records.csv``."""
    with open(long, "w", newline="") as fh:
        fh.write(",".join(LONG_COLUMNS) + "\n")
        fh.writelines(",".join(row) + "\n" for row in long_rows(wide))
