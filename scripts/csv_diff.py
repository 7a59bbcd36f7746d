#!/usr/bin/env python3
"""Column-by-column difference of the CSV files of two output directories.

Usage:
    python scripts/csv_diff.py OLD_DIR NEW_DIR

Every ``*.csv`` file under either directory (subdirectories included, as a
sweep writes them) is matched by its relative path.  A byte-identical file
gets one ``identical`` line.  For any other file, each column (matched by
header name) gets a line: ``identical``, or the largest absolute difference
of its numeric cells and the number of rows in which it differs.  Files or
columns present on one side only, and differing row counts, are reported
too.  Cells are split at commas, with no quoting, as resopt writes them.

Exits 0 when every file is byte-identical and 1 otherwise, and 2 when
either argument is not a directory.
"""

import filecmp
import os
import sys
from itertools import zip_longest


def csv_files(root):
    found = set()
    for directory, _, names in os.walk(root):
        for name in names:
            if name.endswith(".csv"):
                found.add(os.path.relpath(os.path.join(directory, name), root))
    return found


def cell_delta(old, new):
    """|new - old| of two numeric cells, or None when either is not a number."""
    try:
        return abs(float(new) - float(old))
    except ValueError:
        return None


def diff_file(old_path, new_path):
    """Per-column [differing rows, max |delta|, non-numeric differences], the
    columns of one side only, and both row counts."""
    with open(old_path, encoding="utf-8") as old_fh, \
            open(new_path, encoding="utf-8") as new_fh:
        old_cols = old_fh.readline().rstrip("\n").split(",")
        new_cols = new_fh.readline().rstrip("\n").split(",")
        shared = [c for c in old_cols if c in new_cols]
        pairs = [(old_cols.index(c), new_cols.index(c)) for c in shared]
        stats = {c: [0, 0.0, 0] for c in shared}
        rows = [0, 0]
        for old_line, new_line in zip_longest(old_fh, new_fh):
            rows[0] += old_line is not None
            rows[1] += new_line is not None
            if old_line == new_line or old_line is None or new_line is None:
                continue
            old_cells = old_line.rstrip("\n").split(",")
            new_cells = new_line.rstrip("\n").split(",")
            for c, (i, j) in zip(shared, pairs):
                if old_cells[i] != new_cells[j]:
                    entry = stats[c]
                    entry[0] += 1
                    delta = cell_delta(old_cells[i], new_cells[j])
                    if delta is None:
                        entry[2] += 1
                    else:
                        entry[1] = max(entry[1], delta)
    only = ([f"{c} only in OLD" for c in old_cols if c not in new_cols]
            + [f"{c} only in NEW" for c in new_cols if c not in old_cols])
    return stats, only, rows


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: csv_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = args
    missing = [root for root in args if not os.path.isdir(root)]
    for root in missing:
        print(f"error: {root} is not a directory", file=sys.stderr)
    if missing:
        return 2
    old_files, new_files = csv_files(old_dir), csv_files(new_dir)
    same = True
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            print(f"{rel}: only in {'OLD' if rel in old_files else 'NEW'}")
            same = False
            continue
        old_path, new_path = os.path.join(old_dir, rel), os.path.join(new_dir, rel)
        if filecmp.cmp(old_path, new_path, shallow=False):
            print(f"{rel}: identical")
            continue
        same = False
        stats, only, rows = diff_file(old_path, new_path)
        counts = f"{rows[0]} rows" if rows[0] == rows[1] \
            else f"{rows[0]} rows in OLD, {rows[1]} in NEW"
        print(f"{rel}: differs ({counts})")
        for column, (n_rows, delta, text) in stats.items():
            if n_rows == 0:
                print(f"  {column}: identical")
            else:
                note = f" ({text} non-numeric)" if text else ""
                print(f"  {column}: max |delta| {delta:.3g} in {n_rows} rows{note}")
        for line in only:
            print(f"  {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
