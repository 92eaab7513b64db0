import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    """A script under tools/ as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_lists_a_change_between_an_exception_and_a_result():
    parity = load("parity")
    key = ("general", 0, 0, "start-pair")
    raised = {"status": "CountMismatchError", "message": "expected 30 solutions, found 29"}
    tree = {"kind": "blackbox", "children": []}
    solved = {"status": "ok", "message": "", "tree": tree, "warnings": [],
              "provenance": ["path 0"], "points": [np.array([1.0 + 0j])], "residuals": [1e-12]}
    for a, b in ((raised, solved), (solved, raised)):
        diffs = parity.compare({key: a}, {key: b})[0]
        assert f"{key}: status {a['status']!r} -> {b['status']!r}" in diffs
        assert f"{key}: tree / {a.get('tree')!r} -> {b.get('tree')!r}" in diffs


def test_parity_compares_the_second_general_round_op_by_op():
    # The general round is fixed data: its second round solves the same
    # systems again, from the solver's memo, and a difference there alone is
    # listed under its round.
    parity = load("parity")
    assert ("general", 0, 2) in parity.RUNS
    assert "runs = " + repr(parity.RUNS) in parity.CHILD
    record = {"status": "ok", "message": "", "points": [np.array([1 + 0j])], "residuals": [0.0]}
    parent = {("general", 0, r, "start-pair"): record for r in (0, 1)}
    change = {**parent, ("general", 0, 1, "start-pair"): {**record,
                                                          "points": [np.array([1 + 1e-6j])]}}
    assert parity.compare(parent, change)[0] == [
        "('general', 0, 1, 'start-pair'): 1 of 1 points differ by more than 1e-08 relative"]


def test_parity_counts_the_src_lines_of_a_checkout(tmp_path):
    parity = load("parity")
    package = tmp_path / "src" / "torsolve"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")
    (package / "notes.md").write_text("not code\n")
    assert parity.src_lines(tmp_path) == 4


PARENT_RUNS = [2.0, 2.1, 1.9, 2.2, 2.0, 2.05, 1.95, 2.1, 2.0, 2.15]  # spread 15%


def test_pairs_claims_a_gain_only_by_the_paired_rule():
    pairs = load("pairs")
    parent = PARENT_RUNS
    faster = [x - 0.3 for x in parent]
    s = pairs.summarize(parent, faster, "lower", 0.2)
    assert (s["won"], s["lost"], s["pairs"], s["claim"]) == (10, 0, 10, True)
    assert not pairs.summarize(parent, faster, "higher", 0.2)["claim"]
    # Two ties and one loss leave 7 wins of 10: no claim, however large the gain.
    mixed = faster[:7] + parent[7:9] + [parent[9] + 1.0]
    s = pairs.summarize(parent, mixed, "lower", 0.2)
    assert (s["won"], s["lost"], s["claim"]) == (7, 1, False)
    # Every pair won, but by less than the parent's interquartile range.
    s = pairs.summarize(parent, [x - 0.01 for x in parent], "lower", 0.2)
    assert s["won"] == 10 and not s["claim"]


def test_pairs_claims_no_gain_when_the_change_fails_more_ops():
    pairs = load("pairs")
    faster = [x - 0.3 for x in PARENT_RUNS]
    assert pairs.summarize(PARENT_RUNS, faster, "lower", 0.2, failed=(2, 2))["claim"]
    assert not pairs.summarize(PARENT_RUNS, faster, "lower", 0.2, failed=(2, 3))["claim"]


def test_pairs_calls_a_metric_unresolved_when_the_parent_spreads_wider_than_its_bound():
    pairs = load("pairs")
    s = pairs.summarize(PARENT_RUNS, PARENT_RUNS, "lower", 0.2)
    assert round(s["spread"], 4) == round(0.3 / 2.025, 4) and not s["unresolved"]
    # A 22% spread against a 20% bound: nothing can be told, not even a large gain.
    wide = [0.2, 0.21, 0.19, 0.232, 0.2, 0.205, 0.195, 0.21, 0.2, 0.215]
    s = pairs.summarize(wide, [x - 0.03 for x in wide], "lower", 0.2)
    assert s["unresolved"] and s["won"] == 10 and not s["claim"]
    assert not pairs.summarize(wide, wide, "lower", 0.25)["unresolved"]
    # Unless every change run beats every parent run.
    s = pairs.summarize(wide, [x - 0.05 for x in wide], "lower", 0.2)
    assert not s["unresolved"] and s["claim"]
    s = pairs.summarize(wide, [x + 0.05 for x in wide], "higher", 0.2)
    assert not s["unresolved"] and s["claim"]


def test_pairs_calls_a_median_worse_by_more_than_the_bound_a_regression():
    pairs = load("pairs")
    for worse, regressed in ((0.19, False), (0.21, True)):
        s = pairs.summarize(PARENT_RUNS, [x * (1 + worse) for x in PARENT_RUNS], "lower", 0.2)
        assert s["regression"] is regressed and not s["claim"]
        s = pairs.summarize(PARENT_RUNS, [x * (1 - worse) for x in PARENT_RUNS], "higher", 0.2)
        assert s["regression"] is regressed and not s["claim"]


def test_parity_counts_newton_calls_and_gamma_retries_per_workload():
    parity = load("parity")
    tree = {"kind": "triangular", "gamma_retries": 1,
            "children": [{"kind": "blackbox", "gamma_retries": 2, "children": []},
                         {"kind": "univariate", "gamma_retries": 0, "children": []}]}
    parent = {("decomposable", 0, 0, "e-basis[0]"): {"status": "ok", "tree": tree},
              ("decomposable", 0, 1, "e-basis[0]"): {"status": "ok", "tree": tree},
              ("decomposable", 1, 0, "shifted[0]"): {"status": "CountMismatchError"},
              ("cli --tolerance", "1e-6", 0, "triangular"): {"status": "ok", "json": {"tree": tree}},
              ("exact", 0, 0, "mv"): {"status": "ok", "mv": 5}}
    change = {**parent, ("decomposable", 0, 1, "e-basis[0]"): {"status": "ok", "tree": None}}
    assert parity.gamma_retries(parent) == {"decomposable": 6, "cli --tolerance": 3, "exact": 0}
    steps = ({"decomposable": [10, 40, 400, 7]}, {"decomposable": [9, 30, 300, 2]})
    assert parity.count_lines((parent, change), steps) == [
        "  cli --tolerance: 0 / 0 / 0 / 0 / 3 -> 0 / 0 / 0 / 0 / 3",
        "  decomposable: 10 / 40 / 400 / 7 / 6 -> 9 / 30 / 300 / 2 / 3  (differs)",
        "  exact: 0 / 0 / 0 / 0 / 0 -> 0 / 0 / 0 / 0 / 0",
    ]


def test_parity_lists_the_two_variable_leaves_solved_and_fallen_back():
    parity = load("parity")
    leaves = ({"decomposable": [0, 612], "general": [0, 12]},
              {"decomposable": [612, 0], "general": [11, 1], "cli --tolerance": [6, 2]})
    assert parity.pair_lines(leaves) == [
        "  cli --tolerance: 0 / 0 -> 6 / 2",
        "  decomposable: 0 / 612 -> 612 / 0",
        "  general: 0 / 12 -> 11 / 1",
    ]


def test_parity_counts_classify_calls_and_the_smith_forms_inside_them():
    # The counters of the parity child, run on this checkout: a Smith form
    # counts only when a classify call takes it, so the "outside" one does not.
    parity = load("parity")
    run = parity.SETUP + """
from torsolve.intlinalg import IntMatrix
from torsolve.supports import SupportSystem
LACUNARY = [[(0, 0), (0, 4), (3, 3), (6, 6), (12, 0)], [(0, 0), (3, 7), (6, 2), (9, 1), (9, 5)]]
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
workload = "lacunary"
torsolve.predict_tree(SupportSystem.of_points(LACUNARY))
workload = "triangular"
torsolve.predict_tree(SupportSystem.of_points([TRI_A, TRI_A, TRI_A3]))
workload = "outside"
torsolve.decompose.smith_normal_form(IntMatrix.from_rows([[2]]))
print(json.dumps(nodes))
"""
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert parity.pair_lines(({}, json.loads(out))) == [
        "  lacunary: 0 / 0 -> 2 / 1",
        "  triangular: 0 / 0 -> 4 / 2",
    ]


def test_parity_counts_normalize_calls_and_rank_eliminations():
    # The counters of the parity child, run on this checkout: normalize counts
    # through every module that binds it, once per classify (the lacunary
    # root and its cover) and once through the package; the hull mixed volume
    # of the start pair takes one elimination per point set, each support's
    # rank and then the three sums {A}, {A, A}, {A}.
    parity = load("parity")
    run = parity.SETUP + """
from torsolve.supports import SupportSystem
LACUNARY = [[(0, 0), (0, 4), (3, 3), (6, 6), (12, 0)], [(0, 0), (3, 7), (6, 2), (9, 1), (9, 5)]]
START_A = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3), (3, 0), (3, 1), (3, 4), (4, 2), (5, 3), (5, 4),
           (6, 4)]
workload = "lacunary"
torsolve.predict_tree(SupportSystem.of_points(LACUNARY))
workload = "package"
torsolve.normalize(SupportSystem.of_points(LACUNARY))
workload = "hull"
torsolve.geometry.hull_mixed_volume(SupportSystem.of_points([START_A, START_A]))
print(json.dumps(exact))
"""
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert parity.pair_lines(({}, json.loads(out))) == [
        "  hull: 0 / 0 -> 0 / 5",
        "  lacunary: 0 / 0 -> 2 / 18",
        "  package: 0 / 0 -> 1 / 0",
    ]


def test_parity_counts_one_variable_fiber_nodes_solved_and_fallen_back():
    # The counters of the parity child, run on this checkout: on the
    # triangular node of seven one-variable transfers below the printed
    # example's cover, and on the e-basis root's four transfers to
    # three-variable fibers, whose first fiber is a triangular node of nine
    # one-variable transfers. Once as families, once with every family row
    # after the first coming back short, so that each node tracks its
    # transfers.
    parity = load("parity")
    run = parity.SETUP + """
from torsolve.supports import SparseSystem
from torsolve.tracking import SolutionSet
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
F = SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                             list(zip(TRI_A, [2, 3, 5, 7, 11, 13, 17, 19])),
                             list(zip(TRI_A3, [1, 3, 9, 27, 81, 243]))])
E = torsolve.cli._bench_instance("e-basis", np.random.default_rng(np.random.SeedSequence(0)))
for workload in ("families", "e-basis families"):
    torsolve.solve_decomposable(F if workload == "families" else E, seed=7)
family = torsolve.solver._solve
def short_rows(F, C, *rest):
    sols, tree = family(F, C, *rest)
    return [sols[0]] + [SolutionSet(s.points[:0]) for s in sols[1:]], tree
torsolve.solver._solve = short_rows
for workload in ("tracked", "e-basis tracked"):
    torsolve.solve_decomposable(F if workload == "tracked" else E, seed=7)
print(json.dumps(fibers))
"""
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert parity.pair_lines(({}, json.loads(out))) == [
        "  e-basis families: 0 / 0 -> 2 / 0",
        "  e-basis tracked: 0 / 0 -> 0 / 2",
        "  families: 0 / 0 -> 1 / 0",
        "  tracked: 0 / 0 -> 0 / 1",
    ]


def test_parity_counts_the_target_blocks_that_track_all_tracks():
    # The counters of the parity child, run on this checkout, on the triangular
    # node of seven one-variable transfers below the printed example's cover,
    # with the eigenvalue solve of one fiber or of all seven after the first
    # coming up short: each short fiber is one target block of one track_all
    # call.
    parity = load("parity")
    run = parity.SETUP + """
from torsolve.supports import SparseSystem
from torsolve.tracking import SolutionSet
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
F = SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                             list(zip(TRI_A, [2, 3, 5, 7, 11, 13, 17, 19])),
                             list(zip(TRI_A3, [1, 3, 9, 27, 81, 243]))])
workload = "eigenvalues"
torsolve.solve_decomposable(F, seed=7)
roots = torsolve.solver._companion_roots
for workload, lost in (("one short", slice(3, 4)), ("all short", slice(1, None))):
    def short(F, rows, *rest, lost=lost):
        out = roots(F, rows, *rest)
        if len(rows) > 1:
            out[lost] = [SolutionSet(s.points[:0]) for s in out[lost]]
        return out
    torsolve.solver._companion_roots = short
    torsolve.solve_decomposable(F, seed=7)
print(json.dumps(blocks))
"""
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert parity.pair_lines(({}, json.loads(out))) == [
        "  all short: 0 / 0 -> 1 / 7",
        "  one short: 0 / 0 -> 1 / 1",
    ]


def test_parity_counts_torus_apply_calls_and_the_points_they_map():
    # The counters of the parity child, run on this checkout: a call counts
    # once and maps one point or the rows of its stack, through the package
    # module and through the solver's own binding. The printed example maps
    # four stacks: its two-variable base leaf's 12 eigenvalue candidates out
    # of compacted coordinates, the triangular node's 8 base points and 16
    # solutions, and the lacunary root's 32 roots.
    parity = load("parity")
    run = parity.SETUP + """
from torsolve.intlinalg import IntMatrix
from torsolve.supports import SparseSystem
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
F = SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                             list(zip(TRI_A, [2, 3, 5, 7, 11, 13, 17, 19])),
                             list(zip(TRI_A3, [1, 3, 9, 27, 81, 243]))])
Phi = torsolve.torus.MonomialMap(IntMatrix.from_rows([[3, 0], [-1, 4]]))
workload = "one point"
torsolve.torus.apply(Phi, np.ones(2))
workload = "stack"
torsolve.torus.apply(Phi, np.ones((5, 2)))
workload = "triangular"
torsolve.solve_decomposable(F, seed=7)
print(json.dumps(mapped))
"""
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert parity.pair_lines(({}, json.loads(out))) == [
        "  one point: 0 / 0 -> 1 / 1",
        "  stack: 0 / 0 -> 1 / 5",
        "  triangular: 0 / 0 -> 4 / 68",
    ]


def test_parity_counts_dedup_passes_and_the_candidate_points_they_take():
    # The counters of the parity child, run on this checkout: a direct call
    # counts its 3 points. Solved by decomposition, the printed example takes
    # one pass per refinement of a family, whatever its rows: its
    # two-variable base leaf, its 8 one-variable fibers as one family, the
    # triangular assembly and the lacunary root; a pass per row would count
    # 11. The black box takes one for track_all and one for its refinement.
    parity = load("parity")
    run = parity.SETUP + """
from torsolve.supports import SparseSystem
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
F = SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                             list(zip(TRI_A, [2, 3, 5, 7, 11, 13, 17, 19])),
                             list(zip(TRI_A3, [1, 3, 9, 27, 81, 243]))])
workload = "direct"
torsolve.tracking.distinct(np.ones((3, 2)))
workload = "decomposition"
torsolve.solve_decomposable(F, seed=7)
workload = "blackbox"
torsolve.blackbox(F, seed=7)
print(json.dumps(deduped))
"""
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert parity.pair_lines(({}, json.loads(out))) == [
        "  blackbox: 0 / 0 -> 2 / 64",
        "  decomposition: 0 / 0 -> 4 / 72",
        "  direct: 0 / 0 -> 1 / 3",
    ]


def test_parity_counts_the_hits_and_misses_of_the_solvers_support_memo():
    # The counters of the parity child, run on this checkout, on the printed
    # example and then on its supports with one coefficient changed: the
    # second solve finds all 9 results of support-only work memoized and so
    # makes no classify call, while predict_tree, outside the solver,
    # classifies all 4 nodes again and touches no memo.
    parity = load("parity")
    run = parity.SETUP + """
from torsolve.supports import SparseSystem
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
def system(c):
    return SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                                    list(zip(TRI_A, [c, 3, 5, 7, 11, 13, 17, 19])),
                                    list(zip(TRI_A3, [1, 3, 9, 27, 81, 243]))])
workload = "first solve"
torsolve.solve_decomposable(system(2), seed=7)
workload = "same supports"
torsolve.solve_decomposable(system(3), seed=7)
workload = "predict_tree"
torsolve.predict_tree(system(2).system)
print(json.dumps([memo, nodes]))
"""
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    memo, nodes = json.loads(out)
    assert parity.pair_lines(({}, memo)) == [
        "  first solve: 0 / 0 -> 0 / 9",
        "  same supports: 0 / 0 -> 9 / 0",
    ]
    assert parity.pair_lines(({}, nodes)) == [
        "  first solve: 0 / 0 -> 4 / 2",
        "  predict_tree: 0 / 0 -> 4 / 2",
    ]
