"""Answer checker, independent of the code under test.

Every coloring is checked here: it is proper, it has the claimed number of
classes, and the right number of classes have a dominating vertex.  Values
are compared with the references of ``graphs.py`` and, for n <= 10, with
the brute-force oracle.  Where no reference exists, answers about one
instance must agree across its labellings and formats, and with each other
(the b-chromatic number is the largest fixed point of the dominance vector;
the deficiency at k is (n - k) - dom[n - k]).
"""

from __future__ import annotations

import graphs as G


class Checker:
    def __init__(self, instances: dict) -> None:
        self.instances = instances
        self.seen: dict[tuple, object] = {}
        self._graphs: dict[tuple[str, str], _Graph] = {}

    def check(self, req: dict, key: str, answer: dict) -> str | None:
        """None if the answer is right, else the reason it is wrong."""
        inst = self.instances[req["inst"]]
        try:
            return getattr(self, "_" + req["q"].replace("-", "_"))(req, inst, key, answer)
        except (ValueError, IndexError, KeyError) as exc:
            return f"unparsable answer: {type(exc).__name__}: {exc}"

    # -- per question ------------------------------------------------------

    def _bchromatic(self, req, inst, key, answer):
        value = int(answer["stdout"].split()[0])
        return self._agree(inst, "chi_b", value) or self._fixed_point(inst)

    def _bchromatic_witness(self, req, inst, key, answer):
        wrong = self._bchromatic(req, inst, key, answer)
        if wrong:
            return wrong
        value = int(answer["stdout"].split()[0])
        colors = parse_coloring(answer["witness"], inst["n"])
        fault, dominant = self.graph(inst, key).coloring_report(colors, value)
        if fault:
            return "witness: " + fault
        if dominant != value:
            return f"witness: {dominant} of {value} classes have a dominating vertex"
        return None

    def _dominance(self, req, inst, key, answer):
        rows = [line.split() for line in answer["stdout"].splitlines() if line.strip()]
        ts = [int(t) for t, _ in rows]
        vec = tuple(int(d) for _, d in rows)
        n = inst["n"]
        if not ts or ts != list(range(ts[0], n + 1)):
            return f"dominance rows must run from the chromatic number to n={n}"
        chi = ts[0]
        if chi != inst["ref"].get("chi", chi):
            return f"chromatic number {chi}, expected {inst['ref']['chi']}"
        if vec[0] != chi:
            return f"dom[chi] = {vec[0]}, expected chi = {chi}"
        # degrees do not depend on the labelling or format
        bound = self.graph(inst, "a").degree_bound(n) if "a" in inst["truth"] else None
        for t, d in zip(ts, vec):
            if not 0 <= d <= min(t, bound[t] if bound else t):
                return f"dom[{t}] = {d} exceeds min(t, vertices of degree >= t-1)"
        return self._agree(inst, "dom", (chi,) + vec) or self._fixed_point(inst) \
            or self._deficiency_vs_dom(inst)

    def _bcolor(self, req, inst, key, answer):
        k = req["k"]
        colors = parse_coloring(answer["stdout"], inst["n"])
        fault, dominant = self.graph(inst, key).coloring_report(colors, k)
        if fault:
            return fault
        expected = self.dom_at(inst, k)
        if expected is not None and dominant != expected:
            return f"{dominant} dominant classes at k={k}, expected dom[k]={expected}"
        return None

    def _analyze(self, req, inst, key, answer):
        got = dict(line.split(": ", 1) for line in answer["stdout"].splitlines() if line)
        facts = inst["ref"]["facts"]
        diff = [f"{k}: {got.get(k)} != {v}" for k, v in facts.items() if got.get(k) != v]
        return "; ".join(diff) or None

    def _deficiency(self, req, inst, key, answer):
        k = req["k"]
        value = answer["value"]
        matching = [tuple(e) for e in answer["matching"]]
        tree = self.graph(inst, key)
        used: set[int] = set()
        for u, v in matching:
            if v not in tree.adj[u]:
                return f"({u},{v}) is not a tree edge"
            if u in used or v in used:
                return f"({u},{v}) shares a vertex with another matching edge"
            used |= {u, v}
        if len(matching) != k:
            return f"matching has {len(matching)} edges, expected {k}"
        actual = tree.cotree_deficiency(matching)
        if actual != value:
            return f"witness deficiency {actual} differs from the returned value {value}"
        oracle = inst["ref"].get("oracle_def", {}).get(str(k))
        if oracle is not None and value != oracle:
            return f"deficiency {value} differs from the oracle's {oracle}"
        return self._agree(inst, ("def", k), value) or self._deficiency_vs_dom(inst)

    # -- references and cross-checks ---------------------------------------

    def _agree(self, inst: dict, what, value) -> str | None:
        """Compare with the reference, else with the first answer seen."""
        ref = self.reference(inst, what)
        if ref is not None and value != ref:
            return f"{what} = {value}, expected {ref}"
        first = self.seen.setdefault((inst["id"], what), value)
        if first != value:
            return f"{what} = {value} differs from an earlier answer {first}"
        return None

    def reference(self, inst: dict, what):
        ref = inst["ref"]
        oracle = ref.get("oracle_dom")
        if what == "chi_b":
            if oracle:
                return max(t for t, d in enumerate(oracle[1:], start=oracle[0]) if d == t)
            return ref.get("chi_b")
        if what == "dom":
            if oracle:
                return tuple(oracle)
            if "dom" in ref:
                return (ref["chi"],) + tuple(ref["dom"])
        return None

    def dom_at(self, inst: dict, t: int) -> int | None:
        vec = self.reference(inst, "dom") or self.seen.get((inst["id"], "dom"))
        if vec is None:
            # chain colorings of co-trees are b-colorings
            return t if inst["truth"]["a"]["kind"] == "co" else None
        chi = vec[0]
        return vec[1 + t - chi] if chi <= t < chi + len(vec) - 1 else None

    def _fixed_point(self, inst: dict) -> str | None:
        vec = self.seen.get((inst["id"], "dom"))
        chi_b = self.seen.get((inst["id"], "chi_b"))
        if vec is None or chi_b is None:
            return None
        top = max(t for t, d in enumerate(vec[1:], start=vec[0]) if d == t)
        if top != chi_b:
            return f"b-chromatic number {chi_b} is not the largest fixed point {top} of dom"
        return None

    def _deficiency_vs_dom(self, inst: dict) -> str | None:
        vec = self.seen.get((inst["id"], "dom"))
        if vec is None:
            return None
        chi, n = vec[0], inst["n"]
        for (iid, what), value in self.seen.items():
            if iid == inst["id"] and isinstance(what, tuple) and what[0] == "def":
                k = what[1]
                if value != (n - k) - vec[1 + n - k - chi]:
                    return f"deficiency {value} at k={k} disagrees with dom[{n - k}]"
        return None

    def graph(self, inst: dict, key: str) -> "_Graph":
        if (inst["id"], key) not in self._graphs:
            truth = inst["truth"][key]
            self._graphs[(inst["id"], key)] = _Graph(inst["n"], truth["kind"], truth["edges"])
        return self._graphs[(inst["id"], key)]


class _Graph:
    """A graph given by its edges (``plain``) or as the complement of a
    forest's edges (``co``), with the checks that need adjacency."""

    def __init__(self, n: int, kind: str, edges) -> None:
        self.n = n
        self.co = kind == "co"
        # tuples of ints are not tracked by the garbage collector, which
        # runs before every request
        self.adj = tuple(tuple(a) for a in G.adjacency(n, edges))

    def degree(self, v: int) -> int:
        return self.n - 1 - len(self.adj[v]) if self.co else len(self.adj[v])

    def degree_bound(self, n: int) -> list[int]:
        """bound[t] = number of vertices of degree >= t - 1, for t in 0..n."""
        at_least = G.degree_at_least([self.degree(v) for v in range(n)], n - 1)
        return [at_least[0]] + at_least[:n]

    def coloring_report(self, colors: list[int], t: int) -> tuple[str | None, int]:
        """(fault or None, number of classes with a dominating vertex)."""
        if any(not 0 <= c < t for c in colors):
            return f"a class index lies outside 0..{t - 1}", 0
        classes: list[list[int]] = [[] for _ in range(t)]
        for v, c in enumerate(colors):
            classes[c].append(v)
        if any(not members for members in classes):
            return f"fewer than {t} nonempty classes", 0
        if self.co:
            # a class is a clique of the forest: one vertex or one edge
            for members in classes:
                for i, u in enumerate(members):
                    for v in members[i + 1:]:
                        if v not in self.adj[u]:
                            return f"adjacent vertices {u} and {v} share a class", 0
        else:
            for u, nbrs in enumerate(self.adj):
                for v in nbrs:
                    if colors[u] == colors[v]:
                        return f"adjacent vertices {u} and {v} share a class", 0
        return None, dominant_classes(self.adj, self.co, colors, classes)

    def cotree_deficiency(self, matching) -> int:
        """Classes without a dominating vertex in the coloring of the
        complement whose two-vertex classes are ``matching``."""
        colors = [-1] * self.n
        for c, (u, v) in enumerate(matching):
            colors[u] = colors[v] = c
        nxt = len(matching)
        for v in range(self.n):
            if colors[v] == -1:
                colors[v] = nxt
                nxt += 1
        classes: list[list[int]] = [[] for _ in range(nxt)]
        for v, c in enumerate(colors):
            classes[c].append(v)
        return nxt - dominant_classes(self.adj, True, colors, classes)


def dominant_classes(adj, co: bool, colors: list[int], classes: list[list[int]]) -> int:
    """Classes with a dominating vertex, in the graph ``adj`` describes
    (its complement when ``co``)."""
    t = len(classes)
    dominant = [False] * t
    for v, c in enumerate(colors):
        if dominant[c]:
            continue
        if co:
            # v misses class d iff every member of d is a neighbour in adj
            hits: dict[int, int] = {}
            for w in adj[v]:
                hits[colors[w]] = hits.get(colors[w], 0) + 1
            ok = all(cnt < len(classes[d]) for d, cnt in hits.items() if d != c)
        else:
            ok = len({colors[w] for w in adj[v]}) == t - 1
        dominant[c] = ok
    return sum(dominant)


def parse_coloring(text: str, n: int) -> list[int]:
    """``<vertex> <class>`` lines covering every vertex exactly once."""
    colors = [-1] * n
    for line in text.splitlines():
        if not line.strip():
            continue
        v, c = (int(x) for x in line.split())
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        if colors[v] != -1:
            raise ValueError(f"vertex {v} colored twice")
        colors[v] = c
    if -1 in colors:
        raise ValueError("some vertex has no color")
    return colors
