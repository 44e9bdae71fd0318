"""Synthetic signed digraph families with verified structure.

Families mirror the standard benchmark shapes: single ergodic graphs that
are balanced, anti-balanced or strictly unbalanced; a weakly connected
graph whose first part feeds two balanced sinks; disconnected unions; and
the two-lobe slow-mixing construction whose random walk needs exponentially
many steps to cross between lobes.  Generation is deterministic for a fixed
seed, and every structural claim (ergodicity, balance class, sink layout)
is re-checked against the graph's component analysis, regenerating up to a
retry budget.  `_SIZES` owns the families: their names and the number of
part sizes each takes.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GenerationFailed, InvalidConfig
from .graph import SignedDigraph, from_edge_list
from .structure import BalanceKind, decompose

_SIZES = {  # family -> number of sizes
    "balanced": 2, "anti_balanced": 2, "strictly_unbalanced": 2,
    "weakly_connected": 5, "disconnected": 5, "disconnected_with_wcc": 7,
    "slow_mixing": 1,
}
FAMILIES = tuple(_SIZES)


@dataclass
class GeneratorConfig:
    """Declarative recipe for one synthetic graph.

    sizes lists component node counts (for slow_mixing, sizes = [m] gives
    the 2m-node construction).  edges_per_node applies within each part;
    cross_edges overrides the number of edges between the two parts of a
    balanced pair (default: 8x the smaller part, mirroring edges_per_node);
    link_edges overrides the number of one-way edges from the non-sink part
    of a weakly connected graph into its sinks (default: 6x its size).
    """

    family: str
    sizes: list = field(default_factory=list)
    edges_per_node: int = 8
    cross_edges: int | None = None
    link_edges: int | None = None
    seed: int = 0
    retries: int = 20

    def validate(self):
        if self.family not in FAMILIES:
            raise InvalidConfig(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise InvalidConfig("sizes must be a non-empty list of positive ints")
        for name, low in (("seed", 0), ("retries", 1), ("cross_edges", 0), ("link_edges", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise InvalidConfig(f"{name} must be >= {low}, got {value}")
        if self.family == "slow_mixing":
            if len(self.sizes) != 1 or self.sizes[0] < 3:
                raise InvalidConfig("slow_mixing takes sizes=[m] with m >= 3")
        elif self.edges_per_node < 2:
            raise InvalidConfig("edges_per_node must be >= 2")
        if len(self.sizes) != _SIZES[self.family]:
            raise InvalidConfig(
                f"family {self.family!r} needs {_SIZES[self.family]} sizes, got {len(self.sizes)}"
            )
        for s in self.sizes if self.family != "slow_mixing" else []:
            if self.edges_per_node >= s:
                raise InvalidConfig("edges_per_node must be smaller than each part size")


def parse_generator_config(text: str) -> GeneratorConfig:
    """Parse `key = value` lines (# comments allowed) into a config."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "family":
            values[key] = value
        elif key == "sizes":
            try:
                values[key] = [int(v) for v in value.replace(",", " ").split()]
            except ValueError:
                raise InvalidConfig(f"line {lineno}: bad sizes {value!r}") from None
        elif key in (f.name for f in fields(GeneratorConfig)):  # every other field is an int
            try:
                values[key] = int(value)
            except ValueError:
                raise InvalidConfig(f"line {lineno}: {key} must be an integer") from None
        else:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
    if "family" not in values:
        raise InvalidConfig("config is missing 'family'")
    cfg = GeneratorConfig(**values)
    cfg.validate()
    return cfg


def _random_distinct_pairs(rng, src_pool, dst_pool, count, taken):
    """Draw `count` distinct directed pairs, no self-loop, not already in `taken`."""
    pairs = []
    guard = 0
    while len(pairs) < count:
        guard += 1
        if guard > 200:
            raise GenerationFailed("edge sampling stalled; graph too dense for request")
        need = count - len(pairs)
        s = src_pool[rng.integers(0, src_pool.size, size=2 * need + 8)]
        t = dst_pool[rng.integers(0, dst_pool.size, size=2 * need + 8)]
        for a, b in zip(s, t):
            if a == b:
                continue
            key = (int(a), int(b))
            if key in taken:
                continue
            taken.add(key)
            pairs.append(key)
            if len(pairs) == count:
                break
    return pairs


def _ergodic_part(rng, nodes: np.ndarray, edges_per_node: int, taken) -> list:
    """Random cycle through all nodes plus random extras: strongly connected
    by construction; aperiodicity is verified by the caller."""
    perm = rng.permutation(nodes)
    edges = []
    for i in range(perm.size):
        key = (int(perm[i]), int(perm[(i + 1) % perm.size]))
        taken.add(key)
        edges.append(key)
    extra = edges_per_node * nodes.size - len(edges)
    edges.extend(_random_distinct_pairs(rng, nodes, nodes, extra, taken))
    return edges


def _signed(edges, sign):
    return [(a, b, sign) for a, b in edges]


def _random_signs(rng, edges):
    signs = rng.integers(0, 2, size=len(edges)) * 2 - 1
    return [(a, b, int(s)) for (a, b), s in zip(edges, signs)]


def _balanced_pair(rng, part_a, part_b, epn, cross, taken):
    """Two ergodic parts, positive inside, negative across (both directions);
    `cross` None means epn edges across per node of the smaller part."""
    if cross is None:
        cross = min(part_a.size, part_b.size) * epn
    edges = _signed(_ergodic_part(rng, part_a, epn, taken), +1)
    edges += _signed(_ergodic_part(rng, part_b, epn, taken), +1)
    flip = rng.integers(0, 2, size=cross).astype(bool)
    n_ab = int(flip.sum())
    edges += _signed(_random_distinct_pairs(rng, part_a, part_b, n_ab, taken), -1)
    edges += _signed(_random_distinct_pairs(rng, part_b, part_a, cross - n_ab, taken), -1)
    return edges


def _check(cond, msg):
    if not cond:
        raise GenerationFailed(msg)


def _check_layout(G: SignedDigraph, layout) -> SignedDigraph:
    """Raise GenerationFailed unless G's SCCs are exactly `layout`.

    `layout` holds one (ascending nodes, balance kind, is sink) triple per
    component; the node sets partition the graph.  A periodic component
    never matches, since only aperiodic components have a balance kind.
    """
    d = decompose(G)
    _check(d.n_components == len(layout), "component count differs from the requested family")
    for nodes, kind, sink in layout:
        cid = int(d.scc_id[nodes[0]])
        _check(np.array_equal(d.components[cid], nodes),
               f"nodes {nodes.min()}..{nodes.max()} are not one component")
        _check((cid in d.sink_index) == sink, f"component {cid} has the wrong sink flag")
        bal = d.analysis(cid).balance
        _check(bal is not None and bal.kind is kind, f"component {cid} is not {kind.value}")
    return G


def _build_once(cfg: GeneratorConfig, rng) -> SignedDigraph:
    sizes = cfg.sizes
    epn = cfg.edges_per_node
    parts = np.split(np.arange(sum(sizes), dtype=np.int64), np.cumsum(sizes)[:-1])
    taken: set = set()

    if cfg.family in ("balanced", "anti_balanced", "strictly_unbalanced"):
        edges = _balanced_pair(rng, parts[0], parts[1], epn, cfg.cross_edges, taken)
        if cfg.family == "anti_balanced":
            edges = [(a, b, -s) for a, b, s in edges]
        elif cfg.family == "strictly_unbalanced":
            edges = _random_signs(rng, [(a, b) for a, b, _ in edges])
        layout = [(np.arange(sum(sizes)), BalanceKind[cfg.family.upper()], True)]
        return _check_layout(from_edge_list(edges), layout)

    # weakly_connected, disconnected and disconnected_with_wcc
    edges = []
    big = cfg.family == "disconnected_with_wcc"  # a balanced pair ahead of parts 1-5
    if big:
        edges += _balanced_pair(rng, parts[0], parts[1], epn, cfg.cross_edges, taken)
    p1, p2, p3, p4, p5 = parts[-5:]
    edges += _random_signs(rng, _ergodic_part(rng, p1, epn, taken))
    edges += _balanced_pair(rng, p2, p3, epn, cfg.cross_edges, taken)
    edges += _balanced_pair(rng, p4, p5, epn, cfg.cross_edges, taken)
    if cfg.family != "disconnected":
        links = cfg.link_edges if cfg.link_edges is not None else 6 * p1.size
        sinks_pool = np.concatenate([p2, p3, p4, p5])
        edges += _random_signs(rng, _random_distinct_pairs(rng, p1, sinks_pool, links, taken))
    layout = [
        (p1, BalanceKind.STRICTLY_UNBALANCED, cfg.family == "disconnected"),
        (np.concatenate([p2, p3]), BalanceKind.BALANCED, True),
        (np.concatenate([p4, p5]), BalanceKind.BALANCED, True),
    ]
    if big:
        layout.append((np.concatenate([parts[0], parts[1]]), BalanceKind.BALANCED, True))
    return _check_layout(from_edge_list(edges), layout)


def slow_mixing(m: int) -> SignedDigraph:
    """Two mirrored lobes of m nodes each, all edges positive unit weight.

    Each lobe is a chain 1 -> 2 -> ... -> m with every non-hub node wired
    back to the hub (node 1 of the lobe); the chain tails cross over to the
    opposite hub.  Aperiodic via 2- and 3-cycles, yet a walk needs about
    2^m steps to move mass across, so it is the canonical slow-mixing case.
    Left lobe nodes are 0..m-1 (hub 0), right lobe m..2m-1 (hub m).
    """
    if m < 3:
        raise InvalidConfig("slow_mixing needs m >= 3")
    edges = []
    for base in (0, m):
        for i in range(m - 1):
            edges.append((base + i, base + i + 1, +1))
        for i in range(1, m):
            edges.append((base + i, base, +1))
    edges.append((m - 1, m, +1))      # left tail -> right hub
    edges.append((2 * m - 1, 0, +1))  # right tail -> left hub
    return from_edge_list(edges)


def generate(config: GeneratorConfig) -> SignedDigraph:
    """Build the configured family; retries fresh seeds on verification failure."""
    config.validate()
    if config.family == "slow_mixing":
        return slow_mixing(config.sizes[0])
    last = None
    for attempt in range(config.retries):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, attempt]))
        try:
            return _build_once(config, rng)
        except GenerationFailed as exc:
            last = exc
    raise GenerationFailed(f"retries exhausted: {last}")
