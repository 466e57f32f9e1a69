"""Compare the outputs of two g2flow run directories.

    python tools/run_diff.py RUN_A RUN_B

For every series.csv column, prints the largest change between the runs
relative to the column's largest magnitude in either run; for every
number in verification.json, prints both values and their relative
change.  Either file may be absent from both runs.  Prints markdown tables.

Exit status: 0 when the runs have the same structure, 1 when a `passed`
flag, the set of rows or columns, or the pattern of blank cells differs
(each difference is listed), 2 on a usage error.
"""

import csv
import json
import os
import sys

import numpy as np


def read_series(path):
    """series.csv as (columns, {column: list of float or None})."""
    with open(path, newline='') as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return header, {c: [float(r[n]) if r[n] else None for r in body]
                    for n, c in enumerate(header)}


def flatten(obj, prefix=''):
    """Leaves of a JSON object keyed by their dotted paths."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(flatten(value, f'{prefix}.{key}' if prefix else key))
    return out


def relative(a, b):
    """max |b - a| over max(|a|, |b|); 0 where both are 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    diff = np.max(np.abs(b - a))
    return diff / scale if scale > 0.0 else diff


def diff_series(path_a, path_b, problems):
    cols_a, a = read_series(path_a)
    cols_b, b = read_series(path_b)
    if cols_a != cols_b:
        problems.append(f'series.csv columns differ: {cols_a} vs {cols_b}')
    if a.get('step') != b.get('step'):
        problems.append('series.csv rows differ: steps '
                        f"{a.get('step')} vs {b.get('step')}")
    print('| series.csv column | largest change / column max |')
    print('| --- | --- |')
    for col in (c for c in cols_a if c in b):
        va, vb = a[col], b[col]
        if len(va) != len(vb) or \
                [v is None for v in va] != [v is None for v in vb]:
            problems.append(f'series.csv column {col}: blank cells differ')
            print(f'| {col} | blank cells differ |')
            continue
        pairs = [(x, y) for x, y in zip(va, vb) if x is not None]
        if not pairs:
            print(f'| {col} | all blank |')
            continue
        print(f'| {col} | {relative(*zip(*pairs)):.2g} |')


def diff_verification(path_a, path_b, problems):
    with open(path_a) as f:
        a = flatten(json.load(f))
    with open(path_b) as f:
        b = flatten(json.load(f))
    only = sorted(a.keys() ^ b.keys())
    if only:
        problems.append(f'verification.json: {len(only)} entries in one run '
                        f'only, first {only[:3]}')
    print('| verification.json entry | A | B | relative change |')
    print('| --- | --- | --- | --- |')
    for key in (k for k in a if k in b):
        x, y = a[key], b[key]
        if isinstance(x, bool) or isinstance(y, bool):
            if x != y:
                problems.append(f'verification.json {key}: {x} vs {y}')
            print(f'| {key} | {x} | {y} | |')
        elif isinstance(x, (int, float)) and isinstance(y, (int, float)):
            print(f'| {key} | {x:.6g} | {y:.6g} | {relative(x, y):.2g} |')
        elif x != y:
            problems.append(f'verification.json {key}: {x!r} vs {y!r}')
            print(f'| {key} | {x!r} | {y!r} | differs |')


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print('usage: python tools/run_diff.py RUN_A RUN_B', file=sys.stderr)
        return 2
    problems = []
    for name, differ in (('series.csv', diff_series),
                         ('verification.json', diff_verification)):
        paths = [os.path.join(d, name) for d in args]
        present = [os.path.exists(p) for p in paths]
        if present == [True, True]:
            differ(*paths, problems)
            print()
        elif any(present):
            problems.append(f'{name} exists in only one run')
    for p in problems:
        print(f'DIFFERS: {p}')
    return 1 if problems else 0


if __name__ == '__main__':
    sys.exit(main())
