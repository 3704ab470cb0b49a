"""Digest a fixed matrix of in-process CLI runs and the detection sweep, to
compare report bytes.

Writes the scripts/make_bodies.py catalog into a temporary directory and
runs every subcommand on every body there, in JSON and in CSV, through
``tomoslice.cli.main`` in this process.  Each run prints one line: the argv,
the exit code and the sha256 of its stdout and of its stderr.  Runs that end
in an error (a polytope given to quadric-check, an unbounded body given to
detect) are part of the matrix, so error messages are compared too.  Then
every body of the scripts/run_detection_sweep.py population at the same seed
goes through its ``sweep_one``, and the body's entry, as JSON with sorted
keys, is one more run line under the argv ``sweep <label>`` (exit 0, empty
stderr); ``--bodies`` restricts the CLI matrix only.  The sweep records
values no CLI report prints: the section replay error and the residual of
each direction's winning fit.  The last two lines are the sha256 of all
run lines and the BLAS core OpenBLAS picked at run time.  Reports do not
depend on the temporary directory: the runs read the body files by name
from inside it.

Two source trees whose total digests agree on the same BLAS core give the
same stdout, stderr and exit code on every run.  Across cores, floats may
move in their last bits, so compare digests on one core.

``--dump PATH`` also writes every run's argv, exit code, stdout and stderr
to PATH as JSON.  ``--compare A B`` reads two such dumps (made from two
source trees on the same seed) instead of running anything.  It lists the
runs whose bytes changed, and for every float field the number of runs in
which it moved and its largest move, relative to the largest magnitude of
that field in the run and in absolute terms.  A float field is a JSON
number with a fraction or exponent, named by its subcommand and its key
path (list indices dropped), or a CSV cell, named by its column (by its
row's key in a key,value report).  Any other difference, in an exit code,
stderr, a string, an integer or the shape of a report, is listed and makes
the comparison exit 1.

Usage: python scripts/report_digests.py [--seed 0] [--bodies ball3d.json,cube3d.json] [--dump PATH]
       python scripts/report_digests.py --compare A.json B.json
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from make_bodies import build_catalog
from run_detection_sweep import SweepConfig, population, sweep_one
from tomoslice import cli
from tomoslice.bodies import save_body

# fixed directions per dimension, as --xi text: the last axis both ways, the
# diagonal (normalized by the CLI) and one skew direction
DIRECTIONS = {
    2: ["0,1", "0,-1", "1,1", "0.3,-0.8"],
    3: ["0,0,1", "0,0,-1", "1,1,1", "0.3,-0.5,0.8"],
}


def run_matrix(names, dims):
    """The argv list: per body and format, detect twice, moments once, and
    profile, algfit (twice), asymptote and quadric-check along each
    direction; a quadric also gets profile and quadric-check with an
    explicit window."""
    runs = []
    for name in names:
        for fmt in ("json", "csv"):
            base = ["--body", name, "--format", fmt]
            runs.append(["detect", *base])
            runs.append(["detect", *base, "--directions", "40", "--seed", "3"])
            runs.append(["moments", *base, "--directions", "24"])
            for xi in DIRECTIONS[dims[name]]:
                runs.append(["profile", *base, "--xi", xi, "--grid", "32"])
                runs.append(["algfit", *base, "--xi", xi])
                runs.append(["algfit", *base, "--xi", xi, "--margin", "0", "--m-max", "3"])
                runs.append(["asymptote", *base, "--xi", xi])
                runs.append(["quadric-check", *base, "--xi", xi])
            if name in ("paraboloid.json", "hyperboloid.json"):
                runs.append(["profile", *base, "--xi", "0,0,1", "--window", "0.5,4"])
                runs.append(["quadric-check", *base, "--xi", "0,0,1", "--window", "0.5,4"])
    return runs


def run_once(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


def blas_core():
    """The core name numpy's bundled OpenBLAS picked at run time, or
    'unknown' where that library is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def run_records(seed, names=None):
    """Every run of the matrix as a dict of argv, exit code, stdout and
    stderr, on the catalog of ``seed`` (all bodies, or ``names``), then the
    detection sweep of ``seed`` (``sweep_records``)."""
    catalog = build_catalog(seed)
    names = list(catalog) if names is None else names
    dims = {name: catalog[name].n for name in names}
    records = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            save_body(catalog[name], os.path.join(workdir, name))
        os.chdir(workdir)
        try:
            for argv in run_matrix(names, dims):
                code, out, err = run_once(argv)
                records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
        finally:
            os.chdir(here)
    return records + sweep_records(seed)


def sweep_records(seed):
    """One record per body of the default detection sweep at ``seed``: argv
    ``sweep <label>``, exit 0, the body's entry as JSON (sorted keys, indent
    2) on stdout, and an empty stderr."""
    config = SweepConfig(seed=seed)
    return [
        {
            "argv": ["sweep", label],
            "exit": 0,
            "stdout": json.dumps(sweep_one(label, body, config), indent=2, sort_keys=True),
            "stderr": "",
        }
        for label, body in population(config)
    ]


def digest_lines(records):
    """One line per run, then the total digest and the BLAS core."""
    lines = []
    for rec in records:
        out_hash = hashlib.sha256(rec["stdout"].encode()).hexdigest()
        err_hash = hashlib.sha256(rec["stderr"].encode()).hexdigest()
        lines.append(f"{' '.join(rec['argv'])} | exit {rec['exit']} | stdout {out_hash} | stderr {err_hash}")
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"total {total} over {len(lines)} runs", f"blas core {blas_core()}"]


def _json_leaves(obj, path=()):
    """(key path, value) for every leaf of a parsed JSON report; list
    indices are left out of the path, so the entries of one array share it."""
    if isinstance(obj, dict):
        if not obj:
            yield path, obj
        for key in sorted(obj):
            yield from _json_leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        if not obj:
            yield path, obj
        for item in obj:
            yield from _json_leaves(item, path)
    else:
        yield path, obj


def _csv_cell(text):
    """A CSV cell as a float when it is one (repr of a float), else as text."""
    try:
        int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text
    return text


def _csv_leaves(text):
    """(field name, value) for every cell of a CSV report; the config line and
    the header are compared as text."""
    lines = text.splitlines()
    yield (), "\n".join(lines[:2])
    header = lines[1].split(",") if len(lines) > 1 else []
    keyed = header == ["key", "value"]
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(header):
            yield (), line
            continue
        for col, cell in zip(header, cells):
            yield ((cells[0],) if keyed and col == "value" else (col,)), _csv_cell(cell)


def _leaves(stdout):
    if stdout.startswith("# config "):
        return list(_csv_leaves(stdout))
    try:
        return list(_json_leaves(json.loads(stdout)))
    except ValueError:
        return [((), stdout)]


def compare_records(old, new):
    """Compare two lists of run records.  Returns (changed argvs, non-float
    differences, {field: [runs moved, largest relative move, largest
    absolute move]})."""
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        return [], ["the two dumps hold different run matrices"], {}
    changed, hard, moves = [], [], {}
    for a, b in zip(old, new):
        if a == b:
            continue
        label = " ".join(a["argv"])
        changed.append(label)
        for key in ("exit", "stderr"):
            if a[key] != b[key]:
                hard.append(f"{label}: {key} differs")
        la, lb = _leaves(a["stdout"]), _leaves(b["stdout"])
        if [p for p, _ in la] != [p for p, _ in lb]:
            hard.append(f"{label}: report shape differs")
            continue
        command = a["argv"][0]
        per_field = {}
        for (path, va), (_, vb) in zip(la, lb):
            if isinstance(va, float) and isinstance(vb, float):
                field = f"{command}:{'.'.join(path)}"
                top, diff = per_field.get(field, (0.0, 0.0))
                per_field[field] = (max(top, abs(va)), max(diff, abs(va - vb)))
            elif va != vb or type(va) is not type(vb):
                hard.append(f"{label}: {'.'.join(path) or 'text'} {va!r} -> {vb!r}")
        for field, (top, diff) in per_field.items():
            if diff == 0.0:
                continue
            rel = diff / top if top > 0.0 else math.inf
            runs, worst_rel, worst_abs = moves.get(field, (0, 0.0, 0.0))
            moves[field] = (runs + 1, max(worst_rel, rel), max(worst_abs, diff))
    return changed, hard, moves


def compare_dumps(path_a, path_b):
    """Print the comparison of two dumps; 0 when only floats moved, else 1."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    if a["blas_core"] != b["blas_core"]:
        print(f"warning: BLAS cores differ ({a['blas_core']} vs {b['blas_core']}); floats may move anyway")
    changed, hard, moves = compare_records(a["runs"], b["runs"])
    for label in changed:
        print(f"changed: {label}")
    print(f"{len(changed)} of {len(a['runs'])} runs changed bytes")
    print("float field | runs moved | largest move relative to the field's max | largest absolute move")
    for field in sorted(moves):
        runs, rel, diff = moves[field]
        print(f"{field} | {runs} | {rel:.2e} | {diff:.2e}")
    for line in hard:
        print(f"non-float difference: {line}")
    return 1 if hard else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0, help="catalog seed, as in make_bodies.py")
    ap.add_argument(
        "--bodies", default=None, help="comma-separated catalog file names for the CLI matrix (default: all)"
    )
    ap.add_argument("--dump", default=None, metavar="PATH", help="also write every run's output to PATH")
    ap.add_argument("--compare", nargs=2, default=None, metavar=("A", "B"), help="compare two dumps; run nothing")
    args = ap.parse_args(argv)
    if args.compare is not None:
        return compare_dumps(*args.compare)
    names = None if args.bodies is None else args.bodies.split(",")
    unknown = sorted(set(names or ()) - set(build_catalog(args.seed)))
    if unknown:
        ap.error(f"not in the catalog: {', '.join(unknown)}")
    records = run_records(args.seed, names)
    for line in digest_lines(records):
        print(line)
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "blas_core": blas_core(), "runs": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
