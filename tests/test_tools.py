import functools
import importlib.util
import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torsolve
from systems import LACUNARY_A1, LACUNARY_A2, START_A, TRI_A, TRI_A3

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


def test_pairs_refuses_two_checkouts_made_differently(tmp_path, capsys):
    pairs = load("pairs")
    parent, change = (tmp_path / "parent").resolve(), (tmp_path / "change").resolve()
    for checkout in (parent, change):
        (checkout / "src" / "torsolve").mkdir(parents=True)
    assert pairs.difference(parent, change) is None
    (change / ".git").mkdir()
    with pytest.raises(SystemExit) as exc:
        pairs.main([str(parent), str(change), "--workload", "general"])
    error = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"{parent} and {change} were made differently: only {change} has .git" in error
    (parent / ".git").mkdir()
    (parent / "src" / "torsolve" / "__pycache__").mkdir()
    assert pairs.difference(parent, change) == f"only {parent} has a __pycache__ under src/"
    (change / "src" / "torsolve" / "__pycache__").mkdir()
    assert pairs.difference(parent, change) is None


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
    assert parity.gamma_retries(parent, {}) == {"decomposable": {"gamma_retries": 6},
                                                "cli --tolerance": {"gamma_retries": 3},
                                                "exact": {"gamma_retries": 0}}
    names = [row[0] for row in parity.COUNTERS[0][1]]
    steps = ({"decomposable": [10, 40, 400, 7]}, {"decomposable": [9, 30, 300, 2]})
    counts = [{w: dict(zip(names, values)) for w, values in side.items()} for side in steps]
    for records, side in zip((parent, change), counts):
        parity.gamma_retries(records, side)
    assert parity.lines(names, counts) == [
        "  cli --tolerance: 0 / 0 / 0 / 0 / 3 -> 0 / 0 / 0 / 0 / 3",
        "  decomposable: 10 / 40 / 400 / 7 / 6 -> 9 / 30 / 300 / 2 / 3  (differs)",
        "  exact: 0 / 0 / 0 / 0 / 0 -> 0 / 0 / 0 / 0 / 0",
    ]


def test_parity_lists_the_two_variable_leaves_solved_and_fallen_back():
    parity = load("parity")
    names = ("eigenproblem leaves", "tracked leaves")
    leaves = ({"decomposable": [0, 612], "general": [0, 12]},
              {"decomposable": [612, 0], "general": [11, 1], "cli --tolerance": [6, 2]})
    counts = [{w: dict(zip(names, values)) for w, values in side.items()} for side in leaves]
    assert parity.lines(names, counts) == [
        "  cli --tolerance: 0 / 0 -> 6 / 2  (differs)",
        "  decomposable: 0 / 612 -> 612 / 0  (differs)",
        "  general: 0 / 12 -> 11 / 1  (differs)",
    ]


def test_parity_counts_only_attributes_this_checkout_has():
    # A counter whose attribute a checkout lacks counts none there, so a
    # renamed function must be renamed in the table too.
    parity = load("parity")
    for _, rows in parity.COUNTERS:
        for name, attribute, _, _ in rows:
            if attribute:
                assert functools.reduce(getattr, attribute.split("."), torsolve), name


# The parity child's scripts below use these supports, and `printed(c)` builds
# the printed triangular example, c the first coefficient of its second
# polynomial.
SUPPORTS = (f"LACUNARY = {[LACUNARY_A1, LACUNARY_A2]!r}\nSTART_A = {START_A!r}\n"
            f"TRI_A = {TRI_A!r}\nTRI_A3 = {TRI_A3!r}\n" + """
from torsolve.supports import SparseSystem, SupportSystem
def printed(c=2):
    return SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                                    list(zip(TRI_A, [c, 3, 5, 7, 11, 13, 17, 19])),
                                    list(zip(TRI_A3, [1, 3, 9, 27, 81, 243]))])
""")


def counted(script):
    """(the parity tool, the counts of its child run on this checkout over
    `script`, which names each workload before its calls)."""
    parity = load("parity")
    run = parity.SETUP + SUPPORTS + script + "\nprint(json.dumps(counts))\n"
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent)], capture_output=True,
                         text=True, check=True).stdout
    return parity, json.loads(out)


def test_parity_counts_classify_calls_and_the_smith_forms_inside_them():
    # A Smith form counts only when a classify call takes it, so the
    # "outside" one does not.
    parity, counts = counted("""
workload = "lacunary"
torsolve.predict_tree(SupportSystem.of_points(LACUNARY))
workload = "triangular"
torsolve.predict_tree(SupportSystem.of_points([TRI_A, TRI_A, TRI_A3]))
workload = "outside"
torsolve.decompose.smith_normal_form(torsolve.IntMatrix.from_rows([[2]]))
""")
    assert parity.section(("classify calls", "Smith forms"), counts) == {
        "lacunary": [2, 1], "triangular": [4, 2]}


def test_parity_counts_normalize_calls_and_rank_eliminations():
    # normalize counts through every module that binds it, once per classify
    # (the lacunary root and its cover) and once through the package;
    # preimage_supports takes none, as phi's determinant decides that it is
    # nonsingular; the hull mixed volume of the start pair takes one
    # elimination per point set it has not ranked yet: each support's basis,
    # which the two branches {A} and {A} reuse, and then the sum {A, A}.
    parity, counts = counted("""
workload = "lacunary"
torsolve.predict_tree(SupportSystem.of_points(LACUNARY))
workload = "package"
torsolve.normalize(SupportSystem.of_points(LACUNARY))
workload = "hull"
torsolve.geometry.hull_mixed_volume(SupportSystem.of_points([START_A, START_A]))
""")
    assert parity.section(("normalize calls", "rank eliminations"), counts) == {
        "hull": [0, 3], "lacunary": [2, 15], "package": [1, 0]}


def test_parity_counts_hulls_in_and_above_the_plane():
    # The start pair's three sums {A}, {A, A}, {A} are polygons; a segment
    # counts with them, and the cube's hull, seeded at the origin and its
    # three neighbours, is above the plane.
    parity, counts = counted("""
workload = "plane"
torsolve.geometry.hull_mixed_volume(SupportSystem.of_points([START_A, START_A]))
torsolve.geometry._hull([(0,), (2,)], [0, 1])
workload = "space"
torsolve.geometry._hull([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)], [0, 1, 2, 4])
""")
    assert parity.section(("planar hulls", "hulls above the plane"), counts) == {
        "plane": [4, 0], "space": [0, 1]}


def test_parity_counts_one_variable_fiber_nodes_solved_and_fallen_back():
    # On the triangular node of seven one-variable transfers below the
    # printed example's cover, and on the e-basis root's four transfers to
    # three-variable fibers, whose first fiber is a triangular node of nine
    # one-variable transfers. Once as families, once with every family row
    # after the first coming back short, so that each node tracks its
    # transfers.
    parity, counts = counted("""
from torsolve.tracking import SolutionSet
E = torsolve.cli._bench_instance("e-basis", np.random.default_rng(np.random.SeedSequence(0)))
for workload in ("families", "e-basis families"):
    torsolve.solve_decomposable(printed() if workload == "families" else E, seed=7)
family = torsolve.solver._solve
def short_rows(S, C, *rest):
    sols, tree = family(S, C, *rest)
    return [sols[0]] + [SolutionSet(s.points[:0]) for s in sols[1:]], tree
torsolve.solver._solve = short_rows
for workload in ("tracked", "e-basis tracked"):
    torsolve.solve_decomposable(printed() if workload == "tracked" else E, seed=7)
""")
    assert parity.section(("family nodes", "tracked nodes"), counts) == {
        "e-basis families": [2, 0], "e-basis tracked": [0, 2], "families": [1, 0],
        "tracked": [0, 1]}


def test_parity_counts_the_target_blocks_that_track_all_tracks():
    # On the triangular node of seven one-variable transfers below the
    # printed example's cover, with the eigenvalue solve of one fiber or of
    # all seven after the first coming up short: each short fiber is one
    # target block of one track_all call.
    parity, counts = counted("""
from torsolve.tracking import SolutionSet
workload = "eigenvalues"
torsolve.solve_decomposable(printed(), seed=7)
roots = torsolve.solver._companion_roots
for workload, lost in (("one short", slice(3, 4)), ("all short", slice(1, None))):
    def short(S, rows, *rest, lost=lost):
        out = roots(S, rows, *rest)
        if len(rows) > 1:
            out[lost] = [SolutionSet(s.points[:0]) for s in out[lost]]
        return out
    torsolve.solver._companion_roots = short
    torsolve.solve_decomposable(printed(), seed=7)
""")
    assert parity.section(("track_all calls", "target blocks"), counts) == {
        "all short": [1, 7], "one short": [1, 1]}


def test_parity_counts_torus_apply_calls_and_the_points_they_map():
    # A call counts once and maps one point or the rows of its stack, through
    # the package module and through the solver's own binding. The printed
    # example maps four stacks: its two-variable base leaf's 10 eigenvalue
    # candidates out of compacted coordinates (2 more lie outside the bounds
    # 1e-8 <= |x_j| <= 1e8), the triangular node's 8 base points and 16
    # solutions, and the lacunary root's 32 roots.
    parity, counts = counted("""
Phi = torsolve.torus.MonomialMap(torsolve.IntMatrix.from_rows([[3, 0], [-1, 4]]))
workload = "one point"
torsolve.torus.apply(Phi, np.ones(2))
workload = "stack"
torsolve.torus.apply(Phi, np.ones((5, 2)))
workload = "triangular"
torsolve.solve_decomposable(printed(), seed=7)
""")
    assert parity.section(("apply calls", "points mapped"), counts) == {
        "one point": [1, 1], "stack": [1, 5], "triangular": [4, 66]}


def test_parity_counts_dedup_passes_and_the_candidate_points_they_take():
    # A direct call counts its 3 points. Solved by decomposition, the printed
    # example takes one pass per refinement of a family, whatever its rows:
    # its two-variable base leaf, its 8 one-variable fibers as one family,
    # the triangular assembly and the lacunary root; a pass per row would
    # count 11. The black box takes one for track_all and one for its
    # refinement.
    parity, counts = counted("""
workload = "direct"
torsolve.tracking.distinct(np.ones((3, 2)))
workload = "decomposition"
torsolve.solve_decomposable(printed(), seed=7)
workload = "blackbox"
torsolve.blackbox(printed(), seed=7)
""")
    assert parity.section(("distinct calls", "candidate points"), counts) == {
        "blackbox": [2, 64], "decomposition": [4, 72], "direct": [1, 3]}


def test_parity_counts_sparse_system_constructions():
    # The printed example is one SparseSystem. Solved by decomposition it
    # builds none, each node being its supports and coefficient rows; the
    # black box builds its total-degree start and target, once for its one
    # gamma.
    parity, counts = counted("""
workload = "input"
F = printed()
workload = "decomposition"
torsolve.solve_decomposable(F, seed=7)
workload = "blackbox"
torsolve.blackbox(F, seed=7)
""")
    assert parity.section(("SparseSystem constructions",), counts) == {
        "input": [1], "blackbox": [2]}


def test_parity_counts_int_matrix_constructions():
    # One classify of the lacunary acceptance system builds the Smith form's
    # input and its P, D and Q, then the Lacunary's phi and psi: its ranks,
    # determinants and preimages work on rows.
    parity, counts = counted("""
S = SupportSystem.of_points(LACUNARY)
workload = "classify"
torsolve.classify(S)
""")
    assert parity.section(("IntMatrix constructions",), counts) == {"classify": [6]}


def test_parity_counts_the_hits_and_misses_of_the_solvers_support_memo():
    # On the printed example and then on its supports with one coefficient
    # changed: the second solve finds all 10 results of support-only work
    # memoized (unimodular_inverse's among them) and so makes no classify
    # call, while predict_tree, outside the solver, classifies all 4 nodes
    # again and touches no memo.
    parity, counts = counted("""
workload = "first solve"
torsolve.solve_decomposable(printed(2), seed=7)
workload = "same supports"
torsolve.solve_decomposable(printed(3), seed=7)
workload = "predict_tree"
torsolve.predict_tree(printed(2).system)
""")
    assert parity.section(("memo hits", "memo misses"), counts) == {
        "first solve": [0, 10], "same supports": [10, 0]}
    assert parity.section(("classify calls", "Smith forms"), counts) == {
        "first solve": [4, 2], "predict_tree": [4, 2]}


def test_parity_counts_a_memo_miss_with_a_hit_inside_as_a_miss():
    # `outer` misses and, inside, hits `one`; then `outer` hits. A call is a
    # hit exactly when the memo's hits rose by one and its misses did not.
    parity, counts = counted("""
def one():
    return 1
def outer(x):
    return torsolve.solver._memo(one) + x
workload = "nested"
torsolve.solver._memo(one)
torsolve.solver._memo(outer, 1)
torsolve.solver._memo(outer, 1)
""")
    assert parity.section(("memo hits", "memo misses"), counts) == {"nested": [2, 2]}


def test_parity_counts_the_values_only_evaluations_and_their_rows():
    # One Newton batch of three rows on x^2 - 2: every row's residual comes
    # from one Homotopy.values call, and only the two rows that step reach
    # Homotopy.state, one call per iteration.
    parity, counts = counted("""
F = SparseSystem.from_pairs([[((0,), -2.0), ((2,), 1.0)]])
c = np.concatenate(F.coefficients)
H = torsolve.Homotopy(F.system, c, [c])
workload = "newton"
torsolve.tracking._newton(H, np.array([[2 ** 0.5], [1.5], [-1.4]], dtype=complex),
                          np.zeros(3, dtype=int), torsolve.TrackerSettings())
""")
    assert parity.section(("values calls", "values rows"), counts) == {"newton": [1, 3]}
    calls, rows = parity.section(("state calls", "rows evaluated"), counts)["newton"]
    assert rows <= 2 * calls

def test_parity_compares_the_json_of_torsolve_start():
    # The parity child, run on this checkout with no benchmark op and one
    # tolerance, runs `torsolve start` on each acceptance system: its labels
    # are the only ones with a node prefix that reach a result, and one that
    # loses its prefix is a difference.
    parity = load("parity")
    assert ("cli start", ["start"]) in parity.CLI_RUNS
    run = parity.CHILD.replace(f"runs = {parity.RUNS!r}", "runs = []")
    out = subprocess.run([sys.executable, "-c", run, str(TOOLS.parent), "1e-6"],
                         capture_output=True, check=True).stdout
    records = pickle.loads(out)[0]
    assert {key[:2] for key in records} == {("cli --tolerance", "1e-6"), ("cli start", "1e-6")}
    for name in ("lacunary-A", "triangular", "start-pair"):
        record = records["cli start", "1e-6", 0, name]
        labels = record["json"]["provenance"]
        assert record["status"] == "ok" and len(labels) == len(record["points"]) > 0
        assert all(label.startswith("start/root[") for label in labels)
        key = ("cli start", "1e-6", 0, name)
        unprefixed = [label[len("start/"):] for label in labels]
        moved = {**record, "json": {**record["json"], "provenance": unprefixed}}
        assert parity.compare({key: record}, {key: moved})[0] == [
            f"{key}: JSON output differs in ['provenance']"]
