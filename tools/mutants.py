"""Mutation sampler: which small edits of the package does tier-1 catch?

A mutant changes one site of one module of src/willmorelab:

    <  <-> <=,  >  <-> >=        (comparisons)
    +  <-> -,   *  <-> /         (binary operators, augmented assignments)
    a float constant other than 0.0 doubled

Sites inside f-strings are left out: they change messages, not values.
The mutated module is written back with ast.unparse into a copy of the
checkout in a temporary directory, and tier-1 runs there with -x, no
bytecode and a per-mutant timeout; the checkout itself is only read.
One mutant runs at a time, and each costs up to one tier-1 run.

    python tools/mutants.py --modules spinor.py reconstruct.py --count 30
    python tools/mutants.py --modules harmonic.py --functions _maxima
    python tools/mutants.py --control

The sample is drawn from every site of the modules with
random.Random(SEED), so a given --count always draws the same mutants;
--functions keeps only the sites whose innermost enclosing function has
one of the given names.
Each line of the table gives module, line, mutation and outcome: killed
(tier-1 fails), survived (it passes) or timed out.  --control runs
tier-1 once with every chosen module rewritten by ast.unparse unmutated,
and exits 1 unless it passes: a mutant's outcome means nothing if the
round trip alone fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "willmorelab")
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
        ast.Div: ast.Mult}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".bench_out")
TIMEOUT = 300.0     # seconds per tier-1 run, about ten times its length
SEED = 0


def sites(tree: ast.AST) -> list:
    """(node, index, label) of every mutation site of a module, in the
    order of ast.walk; index is the operator's position in a Compare."""
    in_fstring = {id(n) for j in ast.walk(tree)
                  if isinstance(j, ast.JoinedStr) for n in ast.walk(j)}
    out = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            out += [(node, i, f"{SYMBOL[type(op)]} -> "
                     f"{SYMBOL[SWAP[type(op)]]}")
                    for i, op in enumerate(node.ops) if type(op) in SWAP]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and type(node.op) in SWAP:
            out.append((node, None, f"{SYMBOL[type(node.op)]} -> "
                        f"{SYMBOL[SWAP[type(node.op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is float \
                and node.value != 0.0:
            out.append((node, None, f"{node.value!r} -> {2 * node.value!r}"))
    return out


def owners(tree: ast.AST) -> dict:
    """{id(node): name of the innermost function that encloses it}."""
    out = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            out[id(child)] = inner
            visit(child, inner)
    visit(tree, None)
    return out


def mutant_source(source: str, k: int) -> str:
    """The module source with its k-th site mutated, by ast.unparse."""
    tree = ast.parse(source)
    node, index, _ = sites(tree)[k]
    if isinstance(node, ast.Compare):
        node.ops[index] = SWAP[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value = 2 * node.value
    else:
        node.op = SWAP[type(node.op)]()
    return ast.unparse(tree)


def tier1(tree_dir: str) -> str:
    """Run tier-1 with -x in a copy of the checkout: "survived" if it
    passes, "killed" if it fails, "timed out" past TIMEOUT."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   ["src"] + [p for p in [os.environ.get("PYTHONPATH")]
                              if p]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--continue-on-collection-errors"]
    try:
        code = subprocess.run(cmd, cwd=tree_dir, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--modules", nargs="+", help="module file names of "
                   "src/willmorelab (default: all)")
    p.add_argument("--count", type=int, default=30, help="mutants to run")
    p.add_argument("--functions", nargs="+", help="names of the functions "
                   "whose sites to draw from (default: all sites)")
    p.add_argument("--control", action="store_true",
                   help="run the unmutated round trip only")
    args = p.parse_args(argv)
    modules = args.modules or sorted(
        f for f in os.listdir(os.path.join(ROOT, PACKAGE))
        if f.endswith(".py"))
    sources = {}
    for m in modules:
        with open(os.path.join(ROOT, PACKAGE, m)) as fh:
            sources[m] = fh.read()

    with tempfile.TemporaryDirectory() as tmp:
        tree_dir = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree_dir, ignore=IGNORE)

        def write(m, text):
            with open(os.path.join(tree_dir, PACKAGE, m), "w") as fh:
                fh.write(text)

        if args.control:
            for m, text in sources.items():
                write(m, ast.unparse(ast.parse(text)))
            outcome = tier1(tree_dir)
            print(f"control (ast.unparse of {len(modules)} modules): "
                  f"{'passed' if outcome == 'survived' else outcome}")
            return 0 if outcome == "survived" else 1

        pool = []
        for m in modules:
            tree = ast.parse(sources[m])
            owner = owners(tree)
            pool += [(m, k, node.lineno, label)
                     for k, (node, _, label) in enumerate(sites(tree))
                     if not args.functions
                     or owner[id(node)] in args.functions]
        sample = random.Random(SEED).sample(
            pool, min(args.count, len(pool)))
        print(f"{len(sample)} of {len(pool)} sites, seed {SEED}")
        print(f"{'module':<16} {'line':>5}  {'mutation':<24} outcome")
        tally = {}
        for m, k, line, label in sorted(sample, key=lambda s: s[::2]):
            write(m, mutant_source(sources[m], k))
            outcome = tier1(tree_dir)
            write(m, sources[m])
            print(f"{m:<16} {line:>5}  {label:<24} {outcome}", flush=True)
            tally.setdefault(m, []).append(outcome == "killed")
        for m, killed in tally.items():
            print(f"{m}: {sum(killed)} of {len(killed)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
