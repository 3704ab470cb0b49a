"""Digest a fixed matrix of in-process CLI runs, to compare report bytes.

Writes the scripts/make_bodies.py catalog into a temporary directory and
runs every subcommand on every body there, in JSON and in CSV, through
``tomoslice.cli.main`` in this process.  Each run prints one line: the argv,
the exit code and the sha256 of its stdout and of its stderr.  Runs that end
in an error (a polytope given to quadric-check, an unbounded body given to
detect) are part of the matrix, so error messages are compared too.  The
last two lines are the sha256 of all run lines and the BLAS core OpenBLAS
picked at run time.  Reports do not depend on the temporary directory: the
runs read the body files by name from inside it.

Two source trees whose total digests agree on the same BLAS core give the
same stdout, stderr and exit code on every run.  Across cores, floats may
move in their last bits, so compare digests on one core.

Usage: python scripts/report_digests.py [--seed 0] [--bodies ball3d.json,cube3d.json]
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import os
import tempfile

import numpy as np

from make_bodies import build_catalog
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


def digest_lines(seed, names=None):
    """One line per run, then the total digest and the BLAS core."""
    catalog = build_catalog(seed)
    names = list(catalog) if names is None else names
    dims = {name: catalog[name].n for name in names}
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            save_body(catalog[name], os.path.join(workdir, name))
        os.chdir(workdir)
        try:
            for argv in run_matrix(names, dims):
                code, out, err = run_once(argv)
                out_hash = hashlib.sha256(out.encode()).hexdigest()
                err_hash = hashlib.sha256(err.encode()).hexdigest()
                lines.append(f"{' '.join(argv)} | exit {code} | stdout {out_hash} | stderr {err_hash}")
        finally:
            os.chdir(here)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"total {total} over {len(lines)} runs", f"blas core {blas_core()}"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0, help="catalog seed, as in make_bodies.py")
    ap.add_argument("--bodies", default=None, help="comma-separated catalog file names (default: all)")
    args = ap.parse_args(argv)
    names = None if args.bodies is None else args.bodies.split(",")
    unknown = sorted(set(names or ()) - set(build_catalog(args.seed)))
    if unknown:
        ap.error(f"not in the catalog: {', '.join(unknown)}")
    for line in digest_lines(args.seed, names):
        print(line)


if __name__ == "__main__":
    main()
