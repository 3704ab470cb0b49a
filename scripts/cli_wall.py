"""Wall time of the command line, one fresh process per run, in two source
trees side by side.

Times a bare ``import tomoslice`` (the import floor every command pays) and
one ``python -m tomoslice`` run per subcommand on an ellipsoid, a polytope
and a quadric.  Each tree runs with ``<tree>/src`` on PYTHONPATH, from a
temporary directory that holds the body files.  The trees alternate: every
case runs once in each tree per repeat, the first tree first on even
repeats and second on odd ones.  Prints one line per case: the median wall
time in each tree and their ratio.  A run that exits 1 in either tree, or
exit codes that differ between the trees, stops the script with exit 1.

Usage: python scripts/cli_wall.py PARENT_TREE CHANGED_TREE
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 7  # runs per case and tree

BODIES = {
    "ellipsoid": {"type": "ellipsoid", "center": [0, 0, 0], "shape": [[1, 0, 0], [0, 1, 0], [0, 0, 4]]},
    "polytope": {
        "type": "polytope",
        "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    },
    "quadric": {"type": "paraboloid", "axes": [1.0, 1.0]},
}

# each body's subcommands and their options; every run exits 0 or 2
SUBCOMMANDS = {
    "ellipsoid": {
        "profile": ["--xi", "0,0,1"],
        "moments": [],
        "algfit": ["--xi", "0,0,1"],
        "detect": [],
        "asymptote": ["--xi", "0,0,1"],
    },
    "polytope": {
        "profile": ["--xi", "0,0,1"],
        "moments": [],
        "algfit": ["--xi", "0.3,-0.5,0.8"],
        "detect": [],
    },
    "quadric": {
        "profile": ["--xi", "0,0,1", "--window", "0.5,4"],
        "asymptote": ["--xi", "0,0,-1"],
        "quadric-check": ["--xi", "0,0,1"],
    },
}


def cases(workdir):
    """Write the body files into workdir; case name -> argv after the interpreter."""
    for body, spec in BODIES.items():
        (workdir / f"{body}.json").write_text(json.dumps(spec))
    out = {"import": ["-c", "import tomoslice"]}
    for body, commands in SUBCOMMANDS.items():
        path = str(workdir / f"{body}.json")
        for command, options in commands.items():
            out[f"{body}-{command}"] = ["-m", "tomoslice", command, "--body", path, *options]
    return out


def timed_run(tree, argv, workdir):
    """Wall seconds and exit code of one fresh interpreter running argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 2):
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=pathlib.Path, help="two source trees, each with a src/ directory")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        runs = cases(workdir)
        times = {name: ([], []) for name in runs}
        try:
            # one untimed import per tree warms the file cache and, unless
            # PYTHONDONTWRITEBYTECODE is set, writes the bytecode caches
            for tree in trees:
                timed_run(tree, ["-c", "import tomoslice"], workdir)
            for repeat in range(REPEATS):
                order = (0, 1) if repeat % 2 == 0 else (1, 0)
                for name, case in runs.items():
                    codes = {}
                    for side in order:
                        elapsed, codes[side] = timed_run(trees[side], case, workdir)
                        times[name][side].append(elapsed)
                    if codes[0] != codes[1]:
                        raise RuntimeError(f"{name}: exit {codes[0]} in {trees[0]}, {codes[1]} in {trees[1]}")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"A = {trees[0]}")
    print(f"B = {trees[1]}")
    print(f"median wall seconds over {REPEATS} runs per tree")
    print(f"{'case':<24} {'A':>7} {'B':>7} {'B/A':>6}")
    for name, (a, b) in times.items():
        ma, mb = statistics.median(a), statistics.median(b)
        print(f"{name:<24} {ma:7.3f} {mb:7.3f} {mb / ma:6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
