"""Outputs pinned to known-good values: CNF/WCNF bytes, engine statistics
and the queries each search strategy makes.

The digests and the per-call statistics below were recorded from the
encoder and engine as they stood before their hot paths were rewritten,
and the queries from the search as it stood before its loops were merged.
Any change to clause content or order, to the engine's search (watch
order, trail order, heuristics) or to which sheet counts the search asks
about moves at least one of them.
"""

import hashlib
import random

from cutstock.bounds import compute_bounds
from cutstock.encoding import EncodeConfig, encode_formula
from cutstock.model import Instance, ItemType, expand_demands, parse_instance
from cutstock.satcore import format_dimacs, format_wcnf
from cutstock.search import solve_instance, soft_unused_sheets

from conftest import DEMO_TEXT, random_instance

STAT_KEYS = ("conflicts", "decisions", "propagations", "restarts", "learned", "clauses", "vars")


def digest_configs():
    demo = parse_instance(DEMO_TEXT, name="demo")
    rotated_only = Instance(6, 4, (ItemType(5, 2, 1), ItemType(3, 5, 2)))
    mid = Instance(30, 20, (ItemType(7, 5, 3), ItemType(12, 4, 2), ItemType(4, 9, 2)))
    configs = [
        ("demo", demo, EncodeConfig(2)),
        ("demo", demo, EncodeConfig(3, True, True)),
        ("rotated-only", rotated_only, EncodeConfig(2, True, False)),
        ("rotated-only", rotated_only, EncodeConfig(2, True, True)),
        ("mid", mid, EncodeConfig(3, True, True)),
        ("mid", mid, EncodeConfig(2, False, False)),
    ]
    rng = random.Random(2604)
    for i in range(10):
        inst = random_instance(rng, max_copies=7, max_dim=9)
        config = EncodeConfig(rng.randint(1, 4), rng.random() < 0.5, rng.random() < 0.5)
        configs.append((f"random{i}", inst, config))
    return [
        (f"{name} k={c.sheets} rot={int(c.rotation)} sb={int(c.symmetry_breaking)}", inst, c)
        for name, inst, c in configs
    ]


def formula_texts(inst, config):
    vm, formula = encode_formula(expand_demands(inst), inst, config)
    dimacs = format_dimacs(formula.num_vars, formula.clauses)
    wcnf = format_wcnf(formula.num_vars, formula.clauses, soft_unused_sheets(vm, 1))
    return dimacs, wcnf


def search_runs():
    gap = Instance(4, 4, (ItemType(1, 2, 3), ItemType(1, 4, 1), ItemType(3, 2, 1)))
    squares = Instance(5, 5, (ItemType(3, 3, 6),))
    # optimum 2 by construction, shelf FFD needs 3
    tiling = Instance(8, 8, (
        ItemType(8, 3, 1), ItemType(5, 4, 1), ItemType(3, 6, 1), ItemType(8, 2, 1),
        ItemType(3, 5, 2), ItemType(5, 2, 1), ItemType(2, 5, 1),
    ))
    # three 5x5 copies need a sheet each; the area bound says 2
    oversized = Instance(8, 8, (
        ItemType(5, 5, 3), ItemType(3, 3, 1), ItemType(1, 8, 3), ItemType(5, 1, 1),
        ItemType(3, 1, 1), ItemType(1, 3, 1),
    ))
    runs = [
        ("gap", gap, "sat", False, False),
        ("gap", gap, "inc", True, False),
        ("gap", gap, "maxsat", False, True),
        ("squares", squares, "inc", False, True),
        ("tiling", tiling, "sat", False, True),
        ("tiling", tiling, "inc", True, False),
        ("tiling", tiling, "maxsat", False, False),
        ("oversized", oversized, "sat", True, True),
        ("oversized", oversized, "inc", False, True),
        ("oversized", oversized, "maxsat", True, False),
    ]
    rng = random.Random(3106)
    strategies = ("sat", "inc", "maxsat")
    while len(runs) < 16:
        inst = random_instance(rng, max_copies=8, max_dim=7)
        rotation, sb = rng.random() < 0.5, rng.random() < 0.5
        bounds = compute_bounds(inst, rotation)
        if bounds.lower < bounds.upper:  # at least one solver call
            runs.append((f"random{len(runs)}", inst, strategies[len(runs) % 3], rotation, sb))
    return [(f"{name} {s} rot={int(r)} sb={int(b)}", inst, s, r, b) for name, inst, s, r, b in runs]


def recorded_run(engine_cls, inst, strategy, rotation, sb, solver_cmd=None):
    """Run one solve; returns (status, best_k, lower bound), per-call (verdict, stats)
    and the outcome itself."""
    calls = []

    class Recording(engine_cls):
        def solve(self, *args, **kwargs):
            result = super().solve(*args, **kwargs)
            assert set(result.stats) == set(STAT_KEYS)
            calls.append((result.status, tuple(result.stats[key] for key in STAT_KEYS)))
            return result

    out = solve_instance(inst, strategy, rotation, sb, solver_cmd=solver_cmd, engine=Recording)
    return (out.status, out.best_k, out.lower_bound), calls, out


def queries(out):
    return [(c.k, c.verdict) for c in out.calls]


DIGESTS = {  # label -> (sha256 of the DIMACS text, sha256 of the WCNF text)
    'demo k=2 rot=0 sb=0': (
        '26e3e6de8a0ea5feb8d6b11852cb6452fd166eb30ffe49cc62afaf66c85780b9',
        'e9032c0f5fd25cb1b47f96992b1e01166e93b1bef4baff3327aee974ea8fcc77',
    ),
    'demo k=3 rot=1 sb=1': (
        '91d4a1de5072b9c250c4865d1dece107664f46fb94c1e8a289fb31534bda5323',
        '521ff8351b119da75f07e57776d6b3430e679930752a955feac0289d66e54748',
    ),
    'rotated-only k=2 rot=1 sb=0': (
        '02cbc67de4df45fd2d42e934b43004f4b6ceb28187694769c8d31f2aedef3afe',
        '4b1159af5ad9ef494462a22d4b841b3c12304ac622a8f8b56187d4fe86962c7c',
    ),
    'rotated-only k=2 rot=1 sb=1': (
        '10832d7dc3b7d59badf0a093deff78ec28cca226336aac723f4392ae4b539ba8',
        '08dffb7f960af7fd7f219ec657c9e528b5565840366c18d997556acd3cefa4a4',
    ),
    'mid k=3 rot=1 sb=1': (
        '23f48ce49e1d6f09f700fb0caff531502eb1f8887af2753da1077c6fb46d3cc1',
        '6af31ad0033ff77a2bb59cd1f2576786a01bee949fe3711f8b414e1eeac486b3',
    ),
    'mid k=2 rot=0 sb=0': (
        '074271108734245295673c5858ecffb68f58b0be4df968a6a72c3eae7e997fb8',
        'e8e96b851fbed1f9695cfc7f6f02e364121b6bada3b22c9db7ee67fb8f2c8f17',
    ),
    'random0 k=1 rot=1 sb=1': (
        '091ad52d51d039e8b5fd9bf663b2b1fc4bc88522660aa0c17f5703bdb08a181f',
        '89058d90989753a4992b517650281d29a0f1ab977731a47b2591223a4ab4ebd2',
    ),
    'random1 k=4 rot=1 sb=1': (
        '15f8d51a558771392735368f9ec8e33f1d702462f75c88d73b69b45c1622eecc',
        '69906fabf00aeefd5d49768a7d05ade53f2fe07456369feb3b82ae550df79ce8',
    ),
    'random2 k=4 rot=1 sb=1': (
        '956bd42b5a4280773e5187a3aa1bec4c68c7b7c2af1947c411aa9abe2a8ade97',
        '1ff1aba3b6440093b3bf018a632115d894bc06111e13f1a28953d265d0254f68',
    ),
    'random3 k=3 rot=1 sb=1': (
        '6c3be2601f407436d814e560e7f199ee1d95bfd5559ede819529fefffeba14f9',
        'fec4724403f5ccc34ea74737a69cc2a4216091049699bd4314cfd229c3285339',
    ),
    'random4 k=2 rot=0 sb=1': (
        '853df526c9637772c520d0cf12392aae1e82d81807c8659329533904d69f6ab6',
        '03e7e4ff371c366ca38d05904f5ff889d2bf73317c00b412ffcf3c81e6ced4dc',
    ),
    'random5 k=2 rot=0 sb=0': (
        'a56e4e72241fa6768c60d78f3eedf5d100d12ddfddeea8e7c853d963134c5208',
        '70e62ea06a5982a3aaf8b46eb3352176ac5e7d3f5c7584dca8f0a42db4a30f2f',
    ),
    'random6 k=4 rot=1 sb=0': (
        '13cbf1bb64a2619ea474e8969163c49c44cf5302d109f07c3b9841cbbe038294',
        '067ef8858a0dac3468298ba61b59bd772535d408cc822515fde51aa057d09651',
    ),
    'random7 k=4 rot=0 sb=1': (
        '1685dd994a5eda73dc42424a3ab5d37ed7f1b5914f6e5e9295d783facf18d0b8',
        '798b0bc88ef6ece72038730afa2a5dc4c27d4488ddde402fe62557ab137b21eb',
    ),
    'random8 k=1 rot=0 sb=0': (
        'ac177939c6b4901f50cd2c7568c65a33336bb9d0d974a8ad16db310e1958f2a0',
        'ff6e4edd642ea70a0a4873afd1fd7bc9acfec31fb1b8afc426da361e3c7b76e8',
    ),
    'random9 k=2 rot=1 sb=0': (
        '5702e504a04eee683583e0a81151ba5addcfdfe84c7648cc727a9c5072bc73d5',
        '99f3be25ae81001cd7d15721f9dd22e238432e696bc893986b40e41ebde2adbc',
    ),
}

# label -> ((status, best_k, lower bound), [(verdict, stats in STAT_KEYS order) per call])
CALLS = {
    'gap sat rot=0 sb=0': (('OPTIMAL', 1, 1), [
        ('SAT', (4, 11, 138, 0, 4, 154, 76)),
    ]),
    'gap inc rot=1 sb=0': (('OPTIMAL', 1, 1), [
        ('SAT', (10, 37, 261, 0, 10, 578, 87)),
    ]),
    'gap maxsat rot=0 sb=1': (('OPTIMAL', 1, 1), [
        ('SAT', (7, 21, 256, 0, 7, 316, 82)),
    ]),
    'squares inc rot=0 sb=1': (('OPTIMAL', 6, 6), [
        ('UNSAT', (28, 34, 483, 0, 28, 1370, 150)),
        ('UNSAT', (151, 167, 1858, 1, 151, 1492, 150)),
    ]),
    'tiling sat rot=0 sb=1': (('OPTIMAL', 2, 2), [
        ('SAT', (32, 217, 1340, 0, 32, 1267, 242)),
    ]),
    'tiling inc rot=1 sb=0': (('OPTIMAL', 2, 2), [
        ('SAT', (510, 1342, 18068, 4, 510, 3928, 259)),
    ]),
    'tiling maxsat rot=0 sb=0': (('OPTIMAL', 2, 2), [
        ('SAT', (13, 244, 691, 0, 13, 1824, 251)),
        ('SAT', (71, 548, 2798, 0, 71, 1882, 251)),
    ]),
    'oversized sat rot=1 sb=1': (('OPTIMAL', 3, 3), [
        ('UNSAT', (2, 1, 59, 0, 1, 3987, 352)),
    ]),
    'oversized inc rot=0 sb=1': (('OPTIMAL', 3, 3), [
        ('UNSAT', (2, 1, 152, 0, 2, 3109, 353)),
    ]),
    'oversized maxsat rot=1 sb=0': (('OPTIMAL', 3, 3), [
        ('SAT', (125, 480, 3981, 1, 125, 6036, 363)),
        ('UNSAT', (162, 633, 4522, 1, 161, 6068, 363)),
    ]),
    'random10 inc rot=0 sb=1': (('OPTIMAL', 3, 3), [
        ('UNSAT', (2, 1, 47, 0, 2, 214, 59)),
    ]),
    'random11 maxsat rot=0 sb=1': (('OPTIMAL', 2, 2), [
        ('SAT', (0, 6, 20, 0, 0, 35, 20)),
        ('UNSAT', (0, 6, 24, 0, 0, 35, 20)),
    ]),
    'random12 sat rot=0 sb=1': (('OPTIMAL', 7, 7), [
        ('UNSAT', (783, 873, 10295, 5, 782, 1835, 160)),
    ]),
    'random13 inc rot=1 sb=0': (('OPTIMAL', 1, 1), [
        ('SAT', (18, 147, 776, 0, 18, 2576, 226)),
    ]),
    'random14 maxsat rot=0 sb=0': (('OPTIMAL', 3, 3), [
        ('SAT', (3, 31, 69, 0, 3, 126, 51)),
        ('UNSAT', (8, 46, 112, 0, 7, 127, 51)),
    ]),
    'random15 sat rot=1 sb=0': (('OPTIMAL', 2, 2), [
        ('SAT', (8, 159, 455, 0, 8, 926, 122)),
    ]),
}

# label -> (formula_builds, [(k, verdict) per call])
QUERIES = {
    'gap sat rot=0 sb=0': (1, [(1, 'SAT')]),
    'gap inc rot=1 sb=0': (1, [(1, 'SAT')]),
    'gap maxsat rot=0 sb=1': (1, [(2, 'SAT')]),
    'squares inc rot=0 sb=1': (1, [(4, 'UNSAT'), (5, 'UNSAT')]),
    'tiling sat rot=0 sb=1': (1, [(2, 'SAT')]),
    'tiling inc rot=1 sb=0': (1, [(2, 'SAT')]),
    'tiling maxsat rot=0 sb=0': (1, [(3, 'SAT'), (2, 'SAT')]),
    'oversized sat rot=1 sb=1': (1, [(2, 'UNSAT')]),
    'oversized inc rot=0 sb=1': (1, [(2, 'UNSAT')]),
    'oversized maxsat rot=1 sb=0': (1, [(3, 'SAT'), (2, 'UNSAT')]),
    'random10 inc rot=0 sb=1': (1, [(2, 'UNSAT')]),
    'random11 maxsat rot=0 sb=1': (1, [(2, 'SAT'), (1, 'UNSAT')]),
    'random12 sat rot=0 sb=1': (1, [(6, 'UNSAT')]),
    'random13 inc rot=1 sb=0': (1, [(1, 'SAT')]),
    'random14 maxsat rot=0 sb=0': (1, [(3, 'SAT'), (2, 'UNSAT')]),
    'random15 sat rot=1 sb=0': (1, [(2, 'SAT')]),
}


def test_formula_bytes_pinned():
    got = {}
    for label, inst, config in digest_configs():
        dimacs, wcnf = formula_texts(inst, config)
        got[label] = (hashlib.sha256(dimacs.encode()).hexdigest(),
                      hashlib.sha256(wcnf.encode()).hexdigest())
    assert got == DIGESTS


def test_search_statistics_pinned(engine_cls):
    runs = search_runs()
    assert [label for label, *_ in runs] == list(CALLS)
    assert list(QUERIES) == list(CALLS)
    for label, inst, strategy, rotation, sb in runs:
        summary, calls, out = recorded_run(engine_cls, inst, strategy, rotation, sb)
        assert (summary, calls) == CALLS[label], label
        assert (out.formula_builds, queries(out)) == QUERIES[label], label


def test_maxsat_fallback_makes_the_internal_calls(engine_cls):
    """After a failed external command, internal maxsat asks what it asks
    alone, on the formula it built for the external solver."""
    for label, inst, strategy, rotation, sb in search_runs():
        if strategy != "maxsat":
            continue
        summary, calls, out = recorded_run(
            engine_cls, inst, strategy, rotation, sb, solver_cmd="no-such-binary-here"
        )
        assert (out.backend, out.calls[0].verdict) == ("internal", "UNKNOWN"), label
        assert (summary, calls) == CALLS[label], label
        builds, internal = QUERIES[label]
        assert (out.formula_builds, queries(out)[1:]) == (builds, internal), label
