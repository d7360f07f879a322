"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer replaces module and class attributes of the package with timing
wrappers, so the program's own source stays untouched. Calls that happen
once per phase or per instance become spans (name, start, end, parent, op,
instance).
Calls that happen once per simulated round or per family lookup would make
millions of spans, so they are folded into one aggregate per (parent span,
name): call count, seconds and counters. A span's self time is its
duration minus its child spans and the aggregates under it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

PHASES = (
    ("leader_election", "leader_election"),
    ("neighborhood_inform", "neighborhood_inform"),
    ("two_hop_connection", "two_hop"),
    ("token_passing", "token_passing"),
    ("three_hop_connection", "three_hop"),
)


class Tracer:
    """Spans and aggregates kept in memory; written out by `write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, rounds, instance]
        self.leaves: dict[tuple[int, str], list] = {}  # -> [calls, seconds, extra...]
        self.candidates = 0  # SelectionFamily objects built, kept or not
        self.op: int | None = None  # loop operation being traced; None in set-up
        self.instance: int | None = None  # index of the op's instance in the list
        self.adjacency: dict[int, frozenset] = {}  # graph of the op's instance
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.op, None, self.instance]
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn, sim_arg: bool = False):
        """Wrap fn in a span; with sim_arg, record the simulated rounds the
        call advanced (its first argument is the Simulator)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            start_round = args[0].round if sim_arg else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if sim_arg:
                    tracer.spans[idx][5] = args[0].round - start_round
                tracer.close(idx)

        return traced

    def leaf_wrapper(self, name: str, fn, count=None):
        """Wrap fn in an aggregate under the current span; count(args, out)
        returns extra per-call counters to add up."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            parent = tracer._stack[-1] if tracer._stack else -1
            slot = tracer.leaves.get((parent, name))
            if slot is None:
                slot = tracer.leaves[(parent, name)] = [0, 0.0, 0, 0, 0]
            slot[0] += 1
            slot[1] += dt
            if count is not None:
                for k, v in enumerate(count(args, out)):
                    slot[2 + k] += v
            return out

        return traced

    # -- installing ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, modules, home, attr: str, make) -> None:
        """Replace home.attr, and every package module attribute bound to
        the same function, with make(original)."""
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(f"{home.__name__}.{attr}")
            return
        wrapped = make(original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, make) -> None:
        if cls is None or attr not in cls.__dict__:
            self.missing.append(f"{getattr(cls, '__name__', '?')}.{attr}")
            return
        self._set(cls, attr, make(cls.__dict__[attr]))

    def install(self, pkg) -> None:
        """Wrap the public entry points of every layer of the package."""
        cli, physical, protocol = pkg.cli, pkg.physical, pkg.protocol
        selection, verify = pkg.selection, pkg.verify
        mods = [pkg, cli, physical, protocol, selection, verify]
        span, leaf = self.span_wrapper, self.leaf_wrapper

        def fn(home, attr: str, name: str, **kw) -> None:
            self.patch_function(mods, home, attr, lambda f: span(name, f, **kw))

        # protocol: the five phases are reached through module globals
        for attr, short in PHASES:
            fn(protocol, attr, f"protocol.{short}", sim_arg=True)
        fn(protocol, "backbone_creation", "protocol.backbone_creation")

        # selection: construction, certification, candidates, reads
        fn(protocol, "construct_ssf", "selection.construct")
        fn(protocol, "construct_selector", "selection.construct")
        fn(selection, "certify", "selection.certify")
        if hasattr(selection, "_element_cover_check"):
            # the exact per-element proof that N <= 64 families use directly
            fn(selection, "_element_cover_check", "selection.certify")
        family_cls = getattr(selection, "SelectionFamily", None)
        self.patch_method(family_cls, "contains", lambda f: leaf("selection.read", f))
        self.patch_method(family_cls, "rounds_for", lambda f: leaf("selection.read", f))
        if family_cls is not None:
            tracer = self

            class CountingFamily(family_cls):
                def __init__(self, *args, **kwargs):
                    tracer.candidates += 1
                    super().__init__(*args, **kwargs)

            self._set(selection, "SelectionFamily", CountingFamily)

        # physical: graph, engine set-up and SINR adjudication
        fn(physical, "build_graph", "physical.build_graph")
        engine_cls = getattr(protocol, "PhysicsEngine", None) or getattr(
            physical, "PhysicsEngine", None
        )
        self.patch_method(engine_cls, "__init__", lambda f: span("physical.engine_init", f))
        self.patch_method(
            engine_cls, "deliver", lambda f: leaf("physical.deliver", f, self._deliver_counts)
        )

        # verify: the checks, the CDS oracles and the helper-rule replays
        fn(verify, "run_all_checks", "verify.checks")
        fn(verify, "min_cds", "verify.min_cds")
        fn(verify, "greedy_cds", "verify.greedy_cds")
        fn(verify, "expected_two_hop", "verify.replay")
        fn(verify, "expected_three_hop", "verify.replay")

        # cli: instance generation, trace streaming, run orchestration
        fn(cli, "generate", "cli.generate")
        self.patch_function(
            mods, cli, "make_instance", lambda f: leaf("cli.make_instance", f)
        )
        sink_cls = getattr(cli, "FileSink", None)
        self.patch_method(sink_cls, "emit", lambda f: leaf("cli.trace_write", f))
        self.patch_method(sink_cls, "skip", lambda f: leaf("cli.trace_write", f))
        fn(cli, "run", "cli.run")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _deliver_counts(self, args, out):
        """Transmissions, deliveries and in-range (sender, listener) pairs of
        one adjudicated round, in-range taken from the instance's graph."""
        transmitters = args[1]
        tx = set(transmitters)
        adj = self.adjacency
        in_range = sum(len(adj.get(t, frozenset()) - tx) for t in tx)
        return len(tx), len(out), in_range

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, rounds, inst) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op, "instance": inst}
                if rounds is not None:
                    rec["rounds"] = rounds
                fh.write(json.dumps(rec) + "\n")
            for (parent, name), (calls, secs, *extra) in sorted(self.leaves.items()):
                fh.write(json.dumps({"name": name, "parent": parent, "calls": calls,
                                     "seconds": secs, "counters": extra}) + "\n")

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self, ops: int, extra: dict) -> dict:
        """Per-layer metrics. Loop figures are per instance (mean over the
        ops traced); set-up figures are totals for one set-up."""
        child_time = [0.0] * len(self.spans)
        child_rounds = [0] * len(self.spans)
        for name, start, end, parent, _op, rounds, _inst in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if rounds is not None:
                    child_rounds[parent] += rounds
        for (parent, _name), slot in self.leaves.items():
            if parent >= 0:
                child_time[parent] += slot[1]

        def in_loop(idx: int) -> bool:
            return idx >= 0 and self.spans[idx][4] is not None

        total_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_rounds: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, op, rounds, _inst) in enumerate(self.spans):
            key = ("loop:" if op is not None else "setup:") + name
            total_s[key] += end - start
            self_s[key] += end - start - child_time[i]
            calls[key] += 1
            if rounds is not None:
                self_rounds[name] += rounds - child_rounds[i]

        leaf_tot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0, 0, 0])
        phase_active: dict[str, int] = defaultdict(int)
        for (parent, name), slot in self.leaves.items():
            key = ("loop:" if in_loop(parent) else "setup:") + name
            acc = leaf_tot[key]
            for k, v in enumerate(slot):
                acc[k] += v
            if name == "physical.deliver" and parent >= 0:
                phase_active[self.spans[parent][0]] += slot[0]

        per = 1.0 / max(1, ops)
        m: dict[str, tuple[float, str]] = {}

        families = calls["setup:selection.construct"]
        m["selection.build_s"] = (self_s["setup:selection.construct"], "s")
        m["selection.certify_s"] = (self_s["setup:selection.certify"], "s")
        m["selection.families"] = (families, "count")
        m["selection.family_sets"] = (extra["family_sets"], "count")
        m["selection.candidates_per_family"] = (
            self.candidates / max(1, families), "ratio")
        read = leaf_tot["loop:selection.read"]
        m["selection.read_s"] = (read[1] * per, "s")
        m["selection.read_calls"] = (read[0] * per, "count")

        deliver = leaf_tot["loop:physical.deliver"]
        m["physical.build_graph_s"] = (self_s["loop:physical.build_graph"] * per, "s")
        m["physical.engine_init_s"] = (self_s["loop:physical.engine_init"] * per, "s")
        m["physical.deliver_s"] = (deliver[1] * per, "s")
        m["physical.deliver_calls"] = (deliver[0] * per, "count")
        m["physical.transmissions"] = (deliver[2] * per, "count")
        m["physical.deliveries"] = (deliver[3] * per, "count")
        m["physical.delivery_ratio"] = (deliver[3] / max(1, deliver[4]), "ratio")

        total_rounds = 0
        total_active = 0
        for _attr, short in PHASES:
            name = f"protocol.{short}"
            m[f"{name}_s"] = (self_s["loop:" + name] * per, "s")
            m[f"{name}.rounds"] = (self_rounds[name] * per, "count")
            m[f"{name}.active_rounds"] = (phase_active[name] * per, "count")
            total_rounds += self_rounds[name]
            total_active += phase_active[name]
        proto_s = total_s["loop:protocol.backbone_creation"]
        m["protocol.rounds_per_s"] = (total_rounds / proto_s if proto_s else 0.0, "1/s")
        m["protocol.active_rounds_per_s"] = (
            total_active / proto_s if proto_s else 0.0, "1/s")

        m["verify.checks_s"] = (self_s["loop:verify.checks"] * per, "s")
        m["verify.min_cds_s"] = (
            (self_s["loop:verify.min_cds"] + self_s["loop:verify.greedy_cds"]) * per, "s")
        m["verify.replay_s"] = (self_s["loop:verify.replay"] * per, "s")
        m["verify.exact_instances"] = (calls["loop:verify.min_cds"] * per, "ratio")

        attempts = leaf_tot["setup:cli.make_instance"][0]
        m["cli.generate_s"] = (total_s["setup:cli.generate"], "s")
        m["cli.generate_attempts_per_instance"] = (
            attempts / max(1, calls["setup:cli.generate"]), "ratio")
        m["cli.trace_write_s"] = (leaf_tot["loop:cli.trace_write"][1] * per, "s")
        m["cli.trace_bytes"] = (extra["trace_bytes"] * per, "B")
        m["cli.report_s"] = (self_s["loop:cli.run"] * per, "s")
        return m
