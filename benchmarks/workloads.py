"""Seeded inputs, op lists and oracles for the benchmark workloads.

A workload is a list of chains. A chain is a list of ops that share a state
dict, so that one op can feed the next (construct -> format -> parse -> ...).
Each op has a timed ``run(state)`` and an untimed ``check(value, state)``
that compares the result with an oracle computed here, independently of
``twoeig``: closed-form alphas and spectra, ``np.linalg.eigvalsh``, brute
force over switchings and 4-subsets, and expected exit codes.

Every call into ``twoeig`` goes through a module attribute looked up at call
time (``T.core.ground``), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Callable

import numpy as np

import twoeig as T
import twoeig.cli  # noqa: F401  (makes T.cli available)

EIG_TOL = 1e-6
RAMANUJAN_SLACK = 1e-9
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed call: `prepare` (untimed) sets up inputs in the chain state,
    `run` is timed, its result goes to state[`store`] if set, and `check`
    compares it with the oracle, untimed."""

    kind: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], bool]
    prepare: Callable[[dict], None] | None = None
    store: str | None = None


@dataclass
class Chain:
    """Ops that share one state dict, run in order.

    `size` orders chains of the same `group` (by default, the same op kinds):
    allocation peaks grow with it, so the memory pass of a traced run runs
    only the largest chain of each group.
    """

    ops: list[Op]
    size: int = 0
    group: object = None

    def key(self):
        return self.group if self.group is not None else tuple(op.kind for op in self.ops)


@dataclass
class Workload:
    name: str
    chains: list[Chain]
    record: dict
    child_rss_kb: list[int] = field(default_factory=list)
    cleanup: Callable[[], None] | None = None
    # chains run once, untimed and checked, before the timed passes
    process_chains: list[Chain] = field(default_factory=list)

    def op_counts(self) -> dict[str, int]:
        return dict(Counter(op.kind for chain in self.chains for op in chain.ops))

    def largest_per_group(self) -> list[Chain]:
        best: dict = {}
        for chain in self.chains:
            if chain.key() not in best or chain.size > best[chain.key()].size:
                best[chain.key()] = chain
        return [c for c in self.chains if best[c.key()] is c]


def _shares(accept: int, reject: int) -> dict:
    total = accept + reject
    return {"accept": accept, "reject": reject, "base": total,
            "accept_share": accept / total if total else 0.0,
            "reject_share": reject / total if total else 0.0}


# ---------------------------------------------------------------------------
# Independent constructions and spectra used as oracles and as file inputs.

def sylvester(k: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def paley(q: int) -> np.ndarray:
    """Paley conference matrix of order q + 1 (q prime, q = 1 mod 4)."""
    legendre = -np.ones(q, dtype=np.int8)
    legendre[(np.arange(1, q) ** 2) % q] = 1
    legendre[0] = 0
    c = np.ones((q + 1, q + 1), dtype=np.int8)
    c[0, 0] = 0
    idx = np.arange(q)
    c[1:, 1:] = legendre[(idx[:, None] - idx[None, :]) % q]
    return c


def distinct_eigs(a: np.ndarray) -> list[tuple[float, int]]:
    """(value, multiplicity) groups of eigvalsh(a), descending, at EIG_TOL."""
    vals = np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))
    groups: list[list[float]] = []
    for v in vals:
        if groups and v - groups[-1][-1] <= EIG_TOL:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return [(sum(g) / len(g), len(g)) for g in reversed(groups)]


def spectrum_matches(spec, values) -> bool:
    """The Spectrum's expanded values equal `values` (any order) within EIG_TOL."""
    got = sorted(spec.expand())
    want = sorted(float(v) for v in values)
    return len(got) == len(want) and all(abs(x - y) <= EIG_TOL for x, y in zip(got, want))


def pairs_match(spec, pairs) -> bool:
    want = sorted((float(v), int(m)) for v, m in pairs)
    got = sorted(spec.pairs)
    return len(got) == len(want) and all(
        abs(v - w) <= EIG_TOL and m == k for (v, m), (w, k) in zip(got, want))


def bipartite(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    color = np.full(n, -1)
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.flatnonzero(adj[u]):
                    if color[v] < 0:
                        color[v] = 1 - color[u]
                        nxt.append(int(v))
                    elif color[v] == color[u]:
                        return False
            frontier = nxt
    return True


def ramanujan_oracle(adj: np.ndarray, mode: str) -> tuple[float, bool]:
    d = int(np.count_nonzero(adj[0]))
    eigs = sorted(np.linalg.eigvalsh(adj.astype(np.float64)), reverse=True)
    if mode == "paper_literal":
        stat = eigs[1]
    else:
        rest = eigs[1:-1] if bipartite(adj) else eigs[1:]
        stat = max((abs(v) for v in rest), default=0.0)
    return float(stat), bool(stat <= 2 * math.sqrt(d - 1) + RAMANUJAN_SLACK)


def good_signature_oracle(signed: np.ndarray) -> bool:
    d = int(np.count_nonzero(signed[0]))
    top = float(np.linalg.eigvalsh(signed.astype(np.float64))[-1])
    return top <= 2 * math.sqrt(d - 1) + RAMANUJAN_SLACK


def lift_adjacency(signed: np.ndarray) -> np.ndarray:
    pos = (signed > 0).astype(np.int8)
    neg = (signed < 0).astype(np.int8)
    return np.block([[pos, neg], [neg, pos]])


def random_regular(rng: np.random.Generator, n: int, d: int) -> list[tuple[int, int]]:
    """Seeded d-regular simple graph: a circulant shuffled by double-edge swaps."""
    if n <= d or (n * d) % 2:
        raise ValueError(f"no {d}-regular circulant on {n} vertices")
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in range(1, d // 2 + 1)}
    if d % 2:
        edges |= {(i, i + n // 2) for i in range(n // 2)}
    edges = sorted(edges)
    present = set(edges)
    for _ in range(10 * len(edges)):
        a, b = (int(x) for x in rng.integers(len(edges), size=2))
        (u, v), (x, y) = edges[a], edges[b]
        if rng.random() < 0.5:
            x, y = y, x
        if len({u, v, x, y}) < 4:
            continue
        e1, e2 = tuple(sorted((u, x))), tuple(sorted((v, y)))
        if e1 in present or e2 in present:
            continue
        present -= {edges[a], edges[b]}
        present |= {e1, e2}
        edges[a], edges[b] = e1, e2
    return sorted(edges)


def signed_adjacency(n: int, edges, signs) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int8)
    for (u, v), s in zip(edges, signs):
        a[u, v] = a[v, u] = s
    return a


def switching_equivalent_oracle(a: np.ndarray, b: np.ndarray) -> bool:
    """Brute force over every switching vector with first entry +1."""
    n = a.shape[0]
    if not np.array_equal(np.abs(a), np.abs(b)):
        return False
    ds = np.array(list(itertools.product((1, -1), repeat=n - 1)), dtype=np.int8).reshape(-1, n - 1)
    ds = np.hstack([np.ones((ds.shape[0], 1), dtype=np.int8), ds])
    switched = ds[:, :, None] * a[None, :, :] * ds[:, None, :]
    return bool((switched == b[None]).all(axis=(1, 2)).any())


def odd_triples(n: int, adj: np.ndarray) -> set[tuple[int, int, int]]:
    """Triples holding an odd number of edges of the graph with adjacency adj."""
    return {t for t in itertools.combinations(range(n), 3)
            if (adj[t[0], t[1]] + adj[t[1], t[2]] + adj[t[0], t[2]]) % 2 == 1}


def twograph_parity_ok(n: int, triples) -> bool:
    present = set(triples)
    return all(sum(t in present for t in itertools.combinations(four, 3)) % 2 == 0
               for four in itertools.combinations(range(n), 4))


def pair_counts(n: int, triples) -> Counter:
    counts = Counter()
    for a, b, c in triples:
        counts[(a, b)] += 1
        counts[(a, c)] += 1
        counts[(b, c)] += 1
    return Counter({p: counts[p] for p in itertools.combinations(range(n), 2)})


def components(n: int, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(n)})


# ---------------------------------------------------------------------------
# bulk-certify

BULK_LADDERS = {
    "full": {
        "sylvester_k": [7, 8, 9, 10, 11],
        "paley_q": [61, 113, 509],
        "derived": {"double_q": 113, "conference_block_q": 113,
                    "kron": (3, 29), "williamson": (61, "two-shifted")},
    },
    "smoke": {
        "sylvester_k": [2, 3, 4],
        "paley_q": [5, 13],
        "derived": {"double_q": 5, "conference_block_q": 5,
                    "kron": (1, 5), "williamson": (5, "two-shifted")},
    },
}
# bipartite_two_eig_check, ground and is_regular run up to this star order
GRAPH_VIEW_MAX_STAR = 2048
# format_matrix and parse_matrix run up to this order; above it the chain
# goes on from the constructed matrix. At order 2048 they take 3.9 s, a third
# of a pass, and a shorter pass gives each op more samples in a run.
IO_MAX_ORDER = 1024


def _bulk_items(ladder) -> list[dict]:
    """Every rung: label, constructor call, the matrix it must return, its alpha."""
    items = []

    def add(label, make, expect, alpha):
        items.append({"label": label, "make": make, "expect": expect, "alpha": alpha,
                      "n": expect.shape[0]})

    for k in ladder["sylvester_k"]:
        add(f"sylvester_hadamard({k})", lambda k=k: T.constructions.sylvester_hadamard(k),
            sylvester(k), 2 ** k)
    for q in ladder["paley_q"]:
        add(f"paley_conference({q})", lambda q=q: T.constructions.paley_conference(q),
            paley(q), q)
    d = ladder["derived"]
    q = d["double_q"]
    c, eye = paley(q), np.eye(q + 1, dtype=np.int8)
    add(f"double(paley({q}))", lambda m=T.SignedMatrix(c): T.constructions.double(m)[0],
        np.block([[c + eye, c - eye], [c - eye, -c - eye]]), 2 * q + 2)
    q = d["conference_block_q"]
    c = paley(q)
    add(f"conference_block(paley({q}))",
        lambda m=T.SignedMatrix(c): T.constructions.conference_block(m),
        np.block([[c, c], [-c, c]]), 2 * q)
    k, q = d["kron"]
    h, c = sylvester(k), paley(q)
    add(f"kronecker_orthogonal(H{2 ** k}, paley({q}))",
        lambda a=T.SignedMatrix(h), b=T.SignedMatrix(c):
        T.constructions.kronecker_orthogonal(a, b)[0],
        np.kron(h, c), 2 ** k * q)
    q, preset = d["williamson"]
    c, eye = paley(q), np.eye(q + 1, dtype=np.int8)
    a1, a2, a3, a4 = c, c, c - eye, c + eye
    # the quadruple (C, C, C - I, C + I) has row supports q, q, q + 1, q + 1
    add(f"williamson_preset(paley({q}), {preset})",
        lambda m=T.SignedMatrix(c): T.constructions.williamson_preset(m, preset),
        np.block([[a1, a2, a3, a4], [-a2, a1, -a4, a3], [-a3, a4, a1, -a2], [-a4, -a3, a2, a1]]),
        4 * q + 2)
    return items


def _bulk_chain(item: dict, flip) -> list[Op]:
    n, alpha = item["n"], item["alpha"]
    flipped = flip is not None

    def check_built(m, st):
        if not isinstance(m, T.SignedMatrix) or m.data.shape != (n, n):
            return False
        if not np.array_equal(m.data, item["expect"]):
            return False
        arr = m.data.copy()
        if flipped:
            i, j = flip
            arr[i, j] = -arr[i, j]
        st["array"] = arr
        st["support"] = np.count_nonzero(arr, axis=1)
        return True

    def prepare_format(st):
        st["m"] = T.SignedMatrix(st["array"])

    def check_text(text, st):
        return isinstance(text, str) and text.count("\n") == n + 1

    def check_parsed(m, st):
        return np.array_equal(m.data, st["array"])

    def check_orth(cert, st):
        return cert is None if flipped else (cert is not None and cert.alpha == alpha)

    def check_star(sg, st):
        return sg.n == 2 * n and np.array_equal(sg.matrix.data[:n, n:], st["array"])

    def check_cert(cert, st):
        if flipped:
            return cert is None
        return (cert is not None and cert.a == 0 and cert.b == -alpha
                and cert.mult_lam == n and cert.mult_mu == n)

    def check_ground(g, st):
        return g.n == 2 * n and g.m == int(st["support"].sum())

    def check_regular(d, st):
        support = st["support"]
        col = np.count_nonzero(st["array"], axis=0)
        regular = bool((support == support[0]).all() and (col == support[0]).all())
        return d == int(support[0]) if regular else d is None

    def prepare_parsed(st):
        st["parsed"] = T.SignedMatrix(st["array"])

    ops = [Op("construct", lambda st: item["make"](), check_built, store="built")]
    if n <= IO_MAX_ORDER:
        ops += [
            Op("format_matrix", lambda st: T.io.format_matrix(st["m"]), check_text,
               prepare_format, store="text"),
            Op("parse_matrix", lambda st: T.io.parse_matrix(st.pop("text")), check_parsed,
               store="parsed"),
            Op("is_orthogonal", lambda st: T.core.is_orthogonal(st["parsed"]), check_orth),
        ]
    else:
        ops.append(Op("is_orthogonal", lambda st: T.core.is_orthogonal(st["parsed"]),
                      check_orth, prepare_parsed))
    ops += [
        Op("star", lambda st: T.core.star(st["parsed"]), check_star, store="star"),
        Op("certify_two_eigenvalues",
           lambda st: T.spectra.certify_two_eigenvalues(st["star"]), check_cert),
    ]
    if 2 * n <= GRAPH_VIEW_MAX_STAR:
        ops += [
            Op("bipartite_two_eig_check",
               lambda st: T.spectra.bipartite_two_eig_check(st["star"]), check_orth),
            Op("ground", lambda st: T.core.ground(st["star"]), check_ground, store="ground"),
            Op("is_regular", lambda st: T.core.is_regular(st["ground"]), check_regular),
        ]
    return ops


def build_bulk(seed: int, scale: str) -> Workload:
    ladder = BULK_LADDERS[scale]
    rng = np.random.default_rng(seed)
    items = _bulk_items(ladder)
    # the middle Sylvester rung, the middle Paley rung and conference_block
    # (a quarter of the full ladder) must be rejected; the seed picks the
    # negated entry. Fixing the rungs keeps every seed's op list the same mix
    # of accept and reject paths, so seeds differ in data, not in work.
    flip_labels = {f"sylvester_hadamard({ladder['sylvester_k'][len(ladder['sylvester_k']) // 2]})",
                   f"paley_conference({ladder['paley_q'][len(ladder['paley_q']) // 2]})",
                   f"conference_block(paley({ladder['derived']['conference_block_q']}))"}
    flip_idx = {i for i, item in enumerate(items) if item["label"] in flip_labels}
    n_flip = len(flip_idx)
    chains = []
    for idx, item in enumerate(items):
        flip = None
        if idx in flip_idx:
            # negating a nonzero entry of an orthogonal matrix changes the
            # inner product of its row with every row sharing that column
            nonzero = np.argwhere(item["expect"])
            flip = tuple(int(x) for x in nonzero[int(rng.integers(len(nonzero)))])
        chains.append(Chain(_bulk_chain(item, flip), item["n"]))
    top = max(item["n"] for item in items)
    record = {
        "ladder": [{"label": it["label"], "order": it["n"], "star_order": 2 * it["n"],
                    "alpha": it["alpha"], "flipped": i in flip_idx,
                    "io": it["n"] <= IO_MAX_ORDER,
                    "graph_views": 2 * it["n"] <= GRAPH_VIEW_MAX_STAR}
                   for i, it in enumerate(items)],
        "shares": _shares(len(items) - n_flip, n_flip),
        "top_star_order": 2 * top,
    }
    return Workload("bulk-certify", chains, record)


# ---------------------------------------------------------------------------
# spectra-lifts

SPECTRA_LADDERS = {
    "full": {
        # six graphs at n = 32 put the median op inside one cluster of
        # similar latencies, so that it does not jump between clusters
        "graphs": [(16, 3), (16, 6), (24, 4), (24, 5), (32, 3), (32, 4), (32, 5), (32, 6),
                   (32, 3), (32, 6), (48, 5)],
        "table": [("knn", 8), ("knn", 16), ("knn-minus-m", 14), ("knn-minus-m", 30),
                  ("nc4-complement", 6), ("nc4-complement", 14)],
        "k_c4": 6, "ground_q": [13, 29], "lemma": (24, 3),
    },
    "smoke": {
        "graphs": [(8, 3), (10, 4)],
        "table": [("knn", 4), ("knn-minus-m", 6), ("nc4-complement", 6)],
        "k_c4": 3, "ground_q": [5], "lemma": (8, 3),
    },
}


def expected_table_spectrum(family: str, n: int) -> list[tuple[float, int]]:
    """Closed-form lift spectra of the three certified families."""
    if family == "knn":
        r = math.sqrt(n)
        return [(n, 1), (r, n), (0, 2 * n - 2), (-r, n), (-n, 1)]
    if family == "knn-minus-m":
        r = math.sqrt(n - 1)
        return [(n - 1, 1), (r, n), (1, n - 1), (-1, n - 1), (-r, n), (-(n - 1), 1)]
    r = math.sqrt(2 * n - 2)
    return [(2 * n - 2, 1), (r, 2 * n), (2, n - 1), (0, 2 * n), (-2, n - 1),
            (-r, 2 * n), (-(2 * n - 2), 1)]


def k_c4_spectrum(k: int) -> list[tuple[float, int]]:
    return [(2 * k - 2, 1), (2, k - 1), (0, 2 * k), (-2, k - 1), (-(2 * k - 2), 1)]


def _check_ram(rep, mode: str, want: tuple[float, bool], d: int) -> bool:
    stat, verdict = want
    return (rep.verdict == verdict and abs(rep.lambda2 - stat) <= EIG_TOL
            and rep.degree == d and rep.mode == mode)


def build_spectra(seed: int, scale: str) -> Workload:
    ladder = SPECTRA_LADDERS[scale]
    rng = np.random.default_rng(seed)
    chains = []
    accept = reject = 0
    for n, d in ladder["graphs"]:
        edges = random_regular(rng, n, d)
        signs = [int(s) for s in rng.choice((-1, 1), size=len(edges))]
        signed = signed_adjacency(n, edges, signs)
        unsigned = np.abs(signed)
        sg = T.SignedGraph(signed)
        g = T.Graph(n, edges)
        signed_vals = np.linalg.eigvalsh(signed.astype(np.float64))
        lift_vals = np.linalg.eigvalsh(lift_adjacency(signed).astype(np.float64))
        union = np.concatenate([np.linalg.eigvalsh(unsigned.astype(np.float64)), signed_vals])
        lift_ok = bool(np.allclose(np.sort(lift_vals), np.sort(union), atol=EIG_TOL, rtol=0))
        ram = {m: ramanujan_oracle(unsigned, m) for m in ("paper_literal", "bipartite_strict")}
        good = good_signature_oracle(signed)
        for verdict in (ram["paper_literal"][1], ram["bipartite_strict"][1], good, lift_ok):
            accept += verdict
            reject += not verdict

        chains.append(Chain([
            Op("eigenvalues_symmetric", lambda st, sg=sg: T.spectra.eigenvalues_symmetric(sg),
               lambda s, st, v=signed_vals: spectrum_matches(s, v)),
            Op("is_ramanujan", lambda st, g=g: T.lifts_ramanujan.is_ramanujan(g, "paper_literal"),
               lambda r, st, w=ram["paper_literal"], d=d: _check_ram(r, "paper_literal", w, d)),
            Op("is_ramanujan",
               lambda st, g=g: T.lifts_ramanujan.is_ramanujan(g, "bipartite_strict"),
               lambda r, st, w=ram["bipartite_strict"], d=d:
               _check_ram(r, "bipartite_strict", w, d)),
            Op("is_good_signature", lambda st, sg=sg: T.lifts_ramanujan.is_good_signature(sg),
               lambda v, st, w=good: v is w),
            Op("lift_spectrum_check", lambda st, sg=sg: T.lifts_ramanujan.lift_spectrum_check(sg),
               lambda v, st, w=lift_ok: v is w),
        ], size=n))
    for family, n in ladder["table"]:
        want = expected_table_spectrum(family, n)
        lift_order = sum(m for _, m in want)
        chains.append(Chain([Op(
            "table_row", lambda st, f=family, n=n: T.lifts_ramanujan.table_row(f, n),
            lambda row, st, w=want: row.match is True and row.signature_good is True
            and pairs_match(row.computed, w))], size=lift_order))
    k = ladder["k_c4"]

    def check_kc4(result, st, k=k):
        graph, spec = result
        return (graph.n == 4 * k and graph.m == 4 * k * k - 4 * k
                and pairs_match(spec, k_c4_spectrum(k)))

    chains.append(Chain([Op("k_c4_complement", lambda st: T.lifts_ramanujan.k_c4_complement(k),
                            check_kc4)]))
    for q in ladder["ground_q"]:
        c = paley(q)

        def check_ground_ram(rep, st, q=q):
            return (rep.alpha == q and rep.n == q + 1 and rep.k == 0 and rep.signature_good
                    and abs(rep.lambda1 - math.sqrt(q)) <= EIG_TOL and rep.ground_report.verdict)

        chains.append(Chain([Op("ground_ramanujan_from_symmetric",
                                lambda st, c=c:
                                T.lifts_ramanujan.ground_ramanujan_from_symmetric(c),
                                check_ground_ram)], size=q))
    ln, ld = ladder["lemma"]
    lemma_edges = random_regular(rng, ln, ld)
    lemma_graph = T.Graph(ln, lemma_edges)
    adj = signed_adjacency(ln, lemma_edges, [1] * len(lemma_edges))
    comp = (1 - adj - np.eye(ln, dtype=np.int8)).astype(np.int8)
    holds = (ld - 1) ** 2 + 4 * ld + 8 <= 4 * ln
    comp_stat, comp_ok = ramanujan_oracle(comp, "paper_literal")

    def check_lemma(rep, st):
        if rep.k != ld or rep.n != ln or rep.inequality_holds != holds:
            return False
        if not holds:
            return rep.complement_report is None
        comp = rep.complement_report
        return comp.verdict is comp_ok and abs(comp.lambda2 - comp_stat) <= EIG_TOL

    chains.append(Chain([Op("lemma_ram_check",
                            lambda st: T.lifts_ramanujan.lemma_ram_check(lemma_graph),
                            check_lemma)]))
    record = {
        "ladder": {"graphs": ladder["graphs"], "table": ladder["table"], "k_c4": k,
                   "ground_q": ladder["ground_q"], "lemma": ladder["lemma"],
                   "largest_eigen_order": max(2 * n for n, _ in ladder["graphs"])},
        # verdict ops over the random graphs: Ramanujan (both modes), good
        # signature and lift union; table and certified rows always accept
        "shares": _shares(accept, reject),
    }
    return Workload("spectra-lifts", chains, record)


# ---------------------------------------------------------------------------
# sweep-small

SWEEP_LADDERS = {
    "full": {"exhaustive_n": 5, "switch_pairs": [(6, 40), (8, 40), (10, 40)],
             "twograph_sets": [(6, 20), (7, 20), (8, 20)],
             # sixteen grounds of 14 edges: the tail op (ten ops beyond it)
             # falls inside this cluster, not on one-off pauses of tiny ops
             "enum_grounds": [(7, 10), (8, 12)] + [(9, 14)] * 16},
    "smoke": {"exhaustive_n": 4, "switch_pairs": [(5, 4)], "twograph_sets": [(5, 4)],
              "enum_grounds": [(5, 6)]},
}


def _random_signed(rng, n: int, p: float = 0.5) -> np.ndarray:
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1)
        signs = rng.choice((-1, 1), size=(n, n))
        a = (upper * signs).astype(np.int8)
        a = a + a.T
        if a.any():
            return a


def _random_graph_edges(rng, n: int, m: int) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(n), 2))
    pick = rng.choice(len(pairs), size=m, replace=False)
    return sorted(pairs[int(i)] for i in pick)


def build_sweep(seed: int, scale: str) -> Workload:
    ladder = SWEEP_LADDERS[scale]
    rng = np.random.default_rng(seed)
    chains = []
    n = ladder["exhaustive_n"]
    iu = np.triu_indices(n, 1)
    codes = np.array(list(itertools.product((0, 1, -1), repeat=len(iu[0]))), dtype=np.int8)[1:]
    mats = np.zeros((len(codes), n, n), dtype=np.int8)
    mats[:, iu[0], iu[1]] = codes
    mats += mats.transpose(0, 2, 1)
    eigs = np.linalg.eigvalsh(mats.astype(np.float64))
    distinct = 1 + (np.diff(eigs, axis=1) > EIG_TOL).sum(axis=1)
    accepted = int((distinct == 2).sum())

    def check_cert(cert, st, two=False, vals=None):
        if not two:
            return cert is None
        return (cert is not None and abs(cert.lam - vals[-1]) <= EIG_TOL
                and abs(cert.mu - vals[0]) <= EIG_TOL
                and cert.mult_lam == int((abs(vals - vals[-1]) <= EIG_TOL).sum()))

    for a, two, vals in zip(mats, distinct == 2, eigs):
        chains.append(Chain([Op(
            "certify_two_eigenvalues",
            lambda st, a=a: T.spectra.certify_two_eigenvalues(T.SignedGraph(a)),
            lambda c, st, two=bool(two), vals=vals: check_cert(c, st, two, vals))]))

    equiv = 0
    for pn, count in ladder["switch_pairs"]:
        for t in range(count):
            a = _random_signed(rng, pn)
            d = rng.choice((-1, 1), size=pn).astype(np.int8)
            b = d[:, None] * a * d[None, :]
            if t % 2:
                iu_b = np.argwhere(np.triu(b, 1))
                u, v = (int(x) for x in iu_b[int(rng.integers(len(iu_b)))])
                b[u, v] = b[v, u] = -b[u, v]
            want = switching_equivalent_oracle(a, b)
            equiv += want
            sa, sb = T.SignedGraph(a), T.SignedGraph(b)

            def check_canon(r, st, a=a):
                return (np.array_equal(np.abs(r.matrix.data), np.abs(a))
                        and switching_equivalent_oracle(a, r.matrix.data))

            chains.append(Chain([
                Op("switching_canonical", lambda st, sa=sa: T.core.switching_canonical(sa),
                   check_canon),
                Op("switching_equivalent",
                   lambda st, sa=sa, sb=sb: T.core.switching_equivalent(sa, sb),
                   lambda v, st, w=want: v is w),
            ], size=pn))

    regular_tg = 0
    for bits in range(2 ** len(iu[0])):
        edges = [(int(u), int(v)) for k, (u, v) in enumerate(zip(*iu)) if bits >> k & 1]
        adj = signed_adjacency(n, edges, [1] * len(edges))
        g = T.Graph(n, edges)
        want_signed = (1 - 2 * adj - np.eye(n, dtype=np.int8)).astype(np.int8)
        want_triples = odd_triples(n, adj)
        counts = pair_counts(n, want_triples)
        want_regular = counts[(0, 1)] if len(set(counts.values())) == 1 else None
        regular_tg += want_regular is not None
        chains.append(Chain(_sweep_twograph_chain(g, want_signed, want_triples, want_regular)))

    valid_sets = 0
    for tn, count in ladder["twograph_sets"]:
        for t in range(count):
            if t % 2 == 0:
                edges = _random_graph_edges(rng, tn, int(rng.integers(1, tn * (tn - 1) // 2)))
                triples = sorted(odd_triples(tn, signed_adjacency(tn, edges, [1] * len(edges))))
            else:
                allt = list(itertools.combinations(range(tn), 3))
                pick = rng.choice(len(allt), size=int(rng.integers(1, len(allt))), replace=False)
                triples = sorted(allt[int(i)] for i in pick)
            valid = twograph_parity_ok(tn, triples)
            valid_sets += valid
            chain = [Op("validate_twograph",
                        lambda st, tn=tn, tr=triples: T.twographs.validate_twograph(tn, tr),
                        lambda tg, st, v=valid, tr=triples:
                        (tg is None) if not v else set(tg.triples) == set(tr), store="tg")]
            if valid:
                x = int(rng.integers(tn))
                want_edges = {tuple(sorted(set(t) - {x})) for t in triples if x in t}
                chain.append(Op("descendant",
                                lambda st, x=x: T.twographs.descendant(st["tg"], x),
                                lambda g, st, w=want_edges: set(g.edges) == w))
            chains.append(Chain(chain, size=tn))

    for gn, gm in ladder["enum_grounds"]:
        edges = _random_graph_edges(rng, gn, gm)
        g = T.Graph(gn, edges)
        want = 2 ** (gm - gn + components(gn, edges))
        chains.append(Chain([
            Op("count_switching_classes", lambda st, g=g: T.core.count_switching_classes(g),
               lambda v, st, w=want: v == w),
            Op("enumerate_switching_classes",
               lambda st, g=g: T.core.enumerate_switching_classes(g),
               lambda reps, st, w=want: len(reps) == w and len(set(reps)) == w),
        ], size=gm))

    record = {
        "ladder": {"exhaustive_n": n, "switch_pairs": ladder["switch_pairs"],
                   "twograph_sets": ladder["twograph_sets"],
                   "enum_grounds": ladder["enum_grounds"]},
        "shares": {
            "certify": _shares(accepted, len(mats) - accepted),
            "switching_equivalent": _shares(
                equiv, sum(c for _, c in ladder["switch_pairs"]) - equiv),
            "regular_twograph": _shares(regular_tg, 2 ** len(iu[0]) - regular_tg),
            "validate_twograph": _shares(valid_sets,
                                         sum(c for _, c in ladder["twograph_sets"]) - valid_sets),
        },
    }
    return Workload("sweep-small", chains, record)


def _sweep_twograph_chain(g, want_signed, want_triples, want_regular) -> list[Op]:
    return [
        Op("signed_complete_from_graph", lambda st: T.twographs.signed_complete_from_graph(g),
           lambda sc, st: np.array_equal(sc.matrix.data, want_signed), store="sc"),
        Op("twograph_from_signed_complete",
           lambda st: T.twographs.twograph_from_signed_complete(st["sc"]),
           lambda tg, st: set(tg.triples) == want_triples, store="tg"),
        Op("is_regular_twograph", lambda st: T.twographs.is_regular_twograph(st["tg"]),
           lambda v, st: v == want_regular),
    ]


# ---------------------------------------------------------------------------
# cli-session

def matrix_text(a: np.ndarray) -> str:
    rows = [" ".join(str(int(x)) for x in row) for row in a]
    return "\n".join([f"{a.shape[0]} {a.shape[1]}", *rows]) + "\n"


def graph_text(a: np.ndarray) -> str:
    iu, iv = np.nonzero(np.triu(a, 1))
    lines = [f"{u + 1} {v + 1} {int(a[u, v])}" for u, v in zip(iu, iv)]
    return "\n".join([f"{a.shape[0]} {len(lines)}", *lines]) + "\n"


def triples_text(n: int, triples) -> str:
    lines = [f"{a + 1} {b + 1} {c + 1}" for a, b, c in sorted(triples)]
    return "\n".join([f"{n} {len(lines)}", *lines]) + "\n"


def read_matrix_text(text: str) -> np.ndarray:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    rows, _ = (int(x) for x in lines[0])
    return np.array([[int(x) for x in ln] for ln in lines[1:1 + rows]], dtype=np.int8)


def _verify_exit(a: np.ndarray) -> int:
    if np.array_equal(a, a.T) and not np.diagonal(a).any():
        obj = a
    else:
        n = a.shape[0]
        obj = np.zeros((2 * n, 2 * n), dtype=np.int8)
        obj[:n, n:], obj[n:, :n] = a, a.T
    return 0 if len(distinct_eigs(obj)) == 2 else 1


def _ramanujan_exit(signed: np.ndarray, mode: str) -> int:
    verdicts = [ramanujan_oracle(np.abs(signed), mode)[1]]
    if (signed < 0).any():
        verdicts.append(good_signature_oracle(signed))
    return 0 if all(verdicts) else 1


def _switched(rng, a: np.ndarray, symmetric: bool) -> np.ndarray:
    d1 = rng.choice((-1, 1), size=a.shape[0]).astype(np.int8)
    d2 = d1 if symmetric else rng.choice((-1, 1), size=a.shape[1]).astype(np.int8)
    return (d1[:, None] * a * d2[None, :]).astype(np.int8)


def _flip(rng, a: np.ndarray, mirror: bool) -> np.ndarray:
    out = a.copy()
    nz = np.argwhere(np.triu(out, 1) if mirror else out)
    i, j = (int(x) for x in nz[int(rng.integers(len(nz)))])
    out[i, j] = -out[i, j]
    if mirror:
        out[j, i] = -out[j, i]
    return out


def _cli_files(rng) -> tuple[dict[str, str], dict[str, object]]:
    """File texts by name, and the arrays the oracles need."""
    h4, h8, h16, h32 = (sylvester(k) for k in (2, 3, 4, 5))
    p6, p14, p30 = paley(5), paley(13), paley(29)
    x8 = _switched(rng, h8[rng.permutation(8)], symmetric=False)
    v32 = _switched(rng, h32, symmetric=False)
    s30 = _switched(rng, p30, symmetric=True)
    r16 = rng.choice((-1, 1), size=(16, 16)).astype(np.int8)
    y20 = _random_signed(rng, 20)
    g12 = signed_adjacency(12, random_regular(rng, 12, 3), rng.choice((-1, 1), size=18))
    g16 = signed_adjacency(16, random_regular(rng, 16, 4), [1] * 32)
    k4 = [(u, v) for u, v in itertools.combinations(range(4), 2)]
    g8 = signed_adjacency(8, k4 + [(u + 4, v + 4) for u, v in k4], rng.choice((-1, 1), size=12))
    e7 = signed_adjacency(7, _random_graph_edges(rng, 7, 10), rng.choice((-1, 1), size=10))
    e8 = signed_adjacency(8, _random_graph_edges(rng, 8, 12), rng.choice((-1, 1), size=12))
    perm = rng.permutation(6)
    # relabelled odd-sign triples of the Paley(5) signing of K6: a regular two-graph
    t6 = sorted(tuple(sorted(int(perm[v]) for v in t))
                for t in odd_triples(6, (p6 < 0).astype(np.int8)))
    t7_edges = _random_graph_edges(rng, 7, int(rng.integers(5, 16)))
    t7 = sorted(odd_triples(7, signed_adjacency(7, t7_edges, [1] * len(t7_edges))))
    allt = list(itertools.combinations(range(6), 3))
    t6bad = sorted(allt[int(i)] for i in rng.choice(len(allt), size=7, replace=False))
    arrays = {"h4": h4, "h8": h8, "h16": h16, "p6": p6, "p14": p14, "v32": v32,
              "f32": _flip(rng, v32, mirror=False), "s30": s30,
              "fs30": _flip(rng, s30, mirror=True),
              "r16": r16, "y20": y20}
    texts = {f"{k}.txt": matrix_text(a) for k, a in arrays.items()}
    texts["x8.txt"] = matrix_text(x8)
    for name, a in (("g12", g12), ("g16", g16), ("g8", g8), ("e7", e7), ("e8", e8)):
        texts[f"{name}.graph"] = graph_text(a)
        arrays[name] = a
    texts["t6.triples"] = triples_text(6, t6)
    texts["t7.triples"] = triples_text(7, t7)
    texts["t6bad.triples"] = triples_text(6, t6bad)
    arrays["t6bad_valid"] = twograph_parity_ok(6, t6bad)
    texts["bad.txt"] = matrix_text(h4)[:-3] + "\n"  # last row loses an entry
    return texts, arrays


def _cli_commands(w: Path, arr: dict) -> list[tuple[list[str], int, bool, Callable | None]]:
    """(argv, expected exit code, in the smoke subset, extra output check)."""
    f = lambda name: str(w / name)  # noqa: E731

    def file_is(name, expect):
        return lambda out: np.array_equal(read_matrix_text((w / name).read_text()), expect)

    out_h64, out_p30, out_lift = f("out_h64.txt"), f("out_p30.txt"), f("out_lift.graph")
    return [
        (["gen", "hadamard", "-k", "5"], 0, True,
         lambda out: np.array_equal(read_matrix_text(out), sylvester(5))),
        (["gen", "hadamard", "-k", "6", "-o", out_h64, "--certify"], 0, False,
         file_is("out_h64.txt", sylvester(6))),
        (["gen", "conference", "-q", "13"], 0, False,
         lambda out: np.array_equal(read_matrix_text(out), arr["p14"])),
        (["gen", "conference", "-q", "29", "-o", out_p30, "--certify"], 0, True,
         file_is("out_p30.txt", paley(29))),
        (["gen", "williamson", "--preset", "all-c", "--input", f("h8.txt")], 0, False, None),
        (["gen", "williamson", "--preset", "two-shifted", "--input", f("p14.txt"), "--certify"],
         0, False, lambda out: "alpha = 54" in out),
        (["gen", "williamson", "--preset", "four-shifted", "--input", f("p6.txt"), "--json"],
         0, False, None),
        (["gen", "williamson", "--preset", "nonsymmetric-all-c", "--input", f("x8.txt")],
         0, False, None),
        (["gen", "double", "--input", f("p14.txt"), "--certify"], 0, False,
         lambda out: "alpha = 28" in out),
        (["gen", "kron", "--input", f("h4.txt"), "--input", f("p6.txt"), "--certify"], 0, True,
         lambda out: np.array_equal(read_matrix_text(out), np.kron(arr["h4"], arr["p6"]))),
        (["gen", "kron", "--input", f("h8.txt"), "--input", f("h4.txt"), "-o", f("out_kron.txt")],
         0, False, file_is("out_kron.txt", np.kron(arr["h8"], arr["h4"]))),
        (["gen", "conference-block", "--input", f("p14.txt"), "--json"], 0, False, None),
        (["verify", f("h16.txt")], _verify_exit(arr["h16"]), True, None),
        (["verify", f("v32.txt")], _verify_exit(arr["v32"]), False, None),
        (["verify", f("f32.txt")], _verify_exit(arr["f32"]), True, None),
        (["verify", f("s30.txt"), "--json"], _verify_exit(arr["s30"]), False, None),
        (["verify", f("fs30.txt")], _verify_exit(arr["fs30"]), False, None),
        (["verify", f("r16.txt"), "--json"], _verify_exit(arr["r16"]), False, None),
        (["verify", f("p14.txt")], _verify_exit(arr["p14"]), False, None),
        (["verify", f("bad.txt")], 2, True, None),
        (["spectrum", f("p14.txt")], 0, True, None),
        (["spectrum", f("h16.txt"), "--json"], 0, False, None),
        (["spectrum", f("y20.txt")], 0, False, None),
        (["spectrum", f("s30.txt")], 0, False, None),
        (["lift", f("g12.graph")], 0, True, None),
        (["lift", f("g12.graph"), "-o", out_lift], 0, False,
         lambda out: (w / "out_lift.graph").read_text().startswith("24 36\n")),
        (["lift", f("g16.graph"), "--json"], 0, False, None),
        (["ramanujan", f("g12.graph")], _ramanujan_exit(arr["g12"], "paper_literal"), True, None),
        (["ramanujan", f("g12.graph"), "--mode", "bipartite-strict"],
         _ramanujan_exit(arr["g12"], "bipartite_strict"), False, None),
        (["ramanujan", f("g16.graph"), "--json"], _ramanujan_exit(arr["g16"], "paper_literal"),
         False, None),
        (["ramanujan", f("g8.graph")], _ramanujan_exit(arr["g8"], "paper_literal"), False, None),
        (["table", "--family", "knn", "-n", "8"], 0, True, None),
        (["table", "--family", "knn-minus-m", "-n", "14"], 0, False, None),
        (["table", "--family", "nc4-complement", "-n", "6", "--json"], 0, False, None),
        (["switch-classes", f("e7.graph")], 0, True, None),
        (["switch-classes", f("e8.graph"), "--json"], 0, False, None),
        (["twograph", f("t6.triples")], 0, True, None),
        (["twograph", f("t7.triples")], 0, False, None),
        (["twograph", f("t6bad.triples")], 0 if arr["t6bad_valid"] else 1, False, None),
        (["verify", f("v32.txt"), "--json"], _verify_exit(arr["v32"]), False, None),
    ]


def _json_status_ok(out: str, code: int) -> bool:
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return False
    return (payload.get("status") == "pass") == (code == 0)


def _subprocess_cli(root: Path, env: dict, workdir: Path, rss_kb: list[int]):
    """Run `python -m twoeig.cli argv` as a child; keep the child's peak RSS."""
    out_path = workdir / "stdout.txt"

    def run(argv):
        with open(out_path, "w+b") as out:
            p = subprocess.Popen([sys.executable, "-m", "twoeig.cli", *argv], cwd=root, env=env,
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL)
            timer = threading.Timer(CLI_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            rss_kb.append(usage.ru_maxrss)
            out.seek(0)
            return p.returncode, out.read().decode()
    return run


def _inprocess_cli(argv):
    """Call twoeig.cli.main(argv) in this process with stdout and stderr captured."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = T.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def build_cli(seed: int, scale: str, root: Path, workdir: Path, env: dict) -> Workload:
    """The timed chains call twoeig.cli.main in-process; `process_chains` run
    every command once as its own `python -m twoeig.cli` process."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    texts, arrays = _cli_files(rng)
    for name, text in texts.items():
        (workdir / name).write_text(text)
    commands = _cli_commands(workdir, arrays)
    if scale == "smoke":
        commands = [c for c in commands if c[2]]
    rss_kb: list[int] = []

    def check(result, st, expected=0, json_out=False, extra=None):
        code, out = result
        if code != expected:
            return False
        if json_out and not _json_status_ok(out, code):
            return False
        return extra is None or bool(extra(out))

    def chains_for(runner):
        # every command is its own memory group: their allocations differ in kind
        return [Chain([Op(argv[0], lambda st, argv=argv: runner(argv),
                          lambda r, st, e=expected, j="--json" in argv, x=extra:
                          check(r, st, e, j, x))], group=i)
                for i, (argv, expected, _, extra) in enumerate(commands)]

    codes = Counter(expected for _, expected, _, _ in commands)
    record = {
        "ladder": {"commands": [" ".join(a[:1] + [Path(x).name if "/" in x else x for x in a[1:]])
                                for a, _, _, _ in commands],
                   "max_spectrum_order": 64},
        "shares": {"expected_exit_codes": {str(k): v for k, v in sorted(codes.items())},
                   **_shares(codes.get(0, 0), len(commands) - codes.get(0, 0))},
        "runner": "timed: in-process twoeig.cli.main; once each, untraced runs only: "
                  "subprocess python -m twoeig.cli",
    }
    return Workload("cli-session", chains_for(_inprocess_cli), record, child_rss_kb=rss_kb,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True),
                    process_chains=chains_for(_subprocess_cli(root, env, workdir, rss_kb)))


def build(name: str, seed: int, scale: str, root: Path, workdir: Path, env: dict) -> Workload:
    if name == "bulk-certify":
        return build_bulk(seed, scale)
    if name == "spectra-lifts":
        return build_spectra(seed, scale)
    if name == "sweep-small":
        return build_sweep(seed, scale)
    if name == "cli-session":
        return build_cli(seed, scale, root, workdir, env)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("bulk-certify", "spectra-lifts", "sweep-small", "cli-session")
