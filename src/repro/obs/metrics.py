"""Metrics registry: counters and gauges keyed by (node, rule, relation).

The paper's whole evaluation (Figures 7-14) is about *observing* a
running declarative network -- per-node bandwidth, convergence CDFs,
aggregate communication work.  This module gives the runtime one
registry those observations hang off:

* **Push counters** exist only where the engine cannot reconstruct the
  number afterwards, and are bumped by the observer seam
  (:mod:`repro.obs.observer`): per-rule firings/inferences (``fire``),
  per-relation weighted commits/retractions (``commit``), per-link
  retransmits (``retransmit``), queue-depth high-water marks (``tick``).
* Everything else is **pulled** at snapshot time from state the engine
  already keeps: engine step/inference/cancellation counters, queue
  lengths, table cardinalities, aggregate-view change counters,
  :class:`~repro.net.stats.TrafficStats` wire totals.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _relation_entry() -> Dict[str, float]:
    return {"commits": 0, "retractions": 0, "renewals": 0,
            "replacements": 0, "run_splits": 0, "rows": 0,
            "view_changes": 0, "view_emitted": 0}


class NodeMetrics:
    """Per-node push counters: handed to the node's engine at
    construction, only ever dict-bumped (by its observer)."""

    __slots__ = ("node", "rule_firings", "rule_inferences", "commits",
                 "retractions", "queue_peak")

    def __init__(self, node: str):
        self.node = node
        #: rule label -> productive strand invocations.
        self.rule_firings: Dict[str, int] = {}
        #: rule label -> successful body instantiations.
        self.rule_inferences: Dict[str, int] = {}
        #: relation -> weighted derivations that became visible
        #: (a ``+k`` burst counts ``k``, not 1).
        self.commits: Dict[str, int] = {}
        #: relation -> weighted derivations that left visibility.
        self.retractions: Dict[str, int] = {}
        #: High-water mark of the delta queue, sampled per CPU tick.
        self.queue_peak = 0


class MetricsSnapshot:
    """A point-in-time reading of every counter a deployment exposes.

    ``nodes``/``rules``/``relations`` are plain dicts (see
    ``Cluster.metrics`` docs and the README counter table);
    :meth:`counter_totals` flattens the order-independent counters for
    sim-vs-live equivalence checks and :meth:`to_prometheus` renders
    the whole snapshot as a Prometheus text exposition.
    """

    def __init__(
        self,
        nodes: Dict[str, Dict[str, float]],
        rules: Dict[Tuple[str, str], Dict[str, int]],
        relations: Dict[Tuple[str, str], Dict[str, float]],
        transport: Dict[str, float],
        links: Dict[Tuple[str, str], int],
        faults: Dict[str, int],
    ):
        self.nodes = nodes
        #: (node, rule label) -> {"firings", "inferences"}.
        self.rules = rules
        #: (node, relation) -> {"commits", "retractions", "renewals",
        #: "replacements", "run_splits", "rows", "view_changes",
        #: "view_emitted"}; ``renewals`` are soft-state re-insertions
        #: that only moved a deadline -- not commits, so not churn;
        #: ``replacements`` are rows displaced by a primary-key
        #: replacement (each also counted under ``retractions``) and
        #: ``run_splits`` the insert runs that could not commit as one
        #: ``-1`` run and one ``+1`` run.  A view's ``view_changes -
        #: view_emitted`` is the number of transient values that never
        #: left the chunk they arose in.
        self.relations = relations
        self.transport = transport
        #: (src, dst) -> retransmits on that link (reliable transport).
        self.links = links
        self.faults = faults

    # -- aggregations --------------------------------------------------
    def rule_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-rule firings/inferences summed over nodes."""
        totals: Dict[str, Dict[str, int]] = {}
        for (_node, rule), counts in self.rules.items():
            slot = totals.setdefault(rule, {"firings": 0, "inferences": 0})
            slot["firings"] += counts["firings"]
            slot["inferences"] += counts["inferences"]
        return totals

    def relation_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-relation counters summed over nodes."""
        totals: Dict[str, Dict[str, float]] = {}
        for (_node, pred), counts in self.relations.items():
            slot = totals.setdefault(pred, _relation_entry())
            for key, value in counts.items():
                slot[key] += value
        return totals

    def counter_totals(self) -> Dict[str, float]:
        """The order-independent counters: identical across sim and
        live targets for the same program + workload (gauges like queue
        peaks and chunk-dependent netting are excluded -- they measure
        scheduling, not meaning)."""
        totals: Dict[str, float] = {}
        for (node, rule), counts in sorted(self.rules.items()):
            totals[f"firings:{node}:{rule}"] = counts["firings"]
            totals[f"inferences:{node}:{rule}"] = counts["inferences"]
        for (node, pred), counts in sorted(self.relations.items()):
            totals[f"commits:{node}:{pred}"] = counts["commits"]
            totals[f"retractions:{node}:{pred}"] = counts["retractions"]
            totals[f"rows:{node}:{pred}"] = counts["rows"]
        totals["messages"] = self.transport.get("messages", 0)
        totals["netdeltas_shipped"] = self.transport.get(
            "netdeltas_shipped", 0
        )
        return totals

    # -- exposition ----------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition (one scrape body)."""
        lines: List[str] = []

        def family(name: str, kind: str, help_text: str,
                   samples: List[Tuple[str, float]]) -> None:
            if not samples:
                return
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                rendered = f"{value:g}"
                lines.append(f"{name}{labels} {rendered}")

        family(
            "ndlog_rule_firings_total", "counter",
            "Productive strand invocations per (node, rule).",
            [(f'{{node="{n}",rule="{r}"}}', c["firings"])
             for (n, r), c in sorted(self.rules.items())],
        )
        family(
            "ndlog_rule_inferences_total", "counter",
            "Successful body instantiations per (node, rule).",
            [(f'{{node="{n}",rule="{r}"}}', c["inferences"])
             for (n, r), c in sorted(self.rules.items())],
        )
        family(
            "ndlog_commits_total", "counter",
            "Weighted derivations that became visible per (node, relation).",
            [(f'{{node="{n}",relation="{p}"}}', c["commits"])
             for (n, p), c in sorted(self.relations.items())],
        )
        family(
            "ndlog_retractions_total", "counter",
            "Weighted derivations that left visibility per (node, relation).",
            [(f'{{node="{n}",relation="{p}"}}', c["retractions"])
             for (n, p), c in sorted(self.relations.items())],
        )
        family(
            "ndlog_renewals_total", "counter",
            "Soft-state re-insertions that only renewed a stored row's "
            "deadline per (node, relation).",
            [(f'{{node="{n}",relation="{p}"}}', c["renewals"])
             for (n, p), c in sorted(self.relations.items())
             if c["renewals"]],
        )
        family(
            "ndlog_replacements_total", "counter",
            "Rows displaced by a primary-key replacement per (node, "
            "relation).",
            [(f'{{node="{n}",relation="{p}"}}', c["replacements"])
             for (n, p), c in sorted(self.relations.items())
             if c["replacements"]],
        )
        family(
            "ndlog_run_splits_total", "counter",
            "Insert runs that committed their pending batch early (a row "
            "hit a primary-key slot the batch had touched) per (node, "
            "relation).",
            [(f'{{node="{n}",relation="{p}"}}', c["run_splits"])
             for (n, p), c in sorted(self.relations.items())
             if c["run_splits"]],
        )
        family(
            "ndlog_table_rows", "gauge",
            "Visible rows per (node, relation).",
            [(f'{{node="{n}",relation="{p}"}}', c["rows"])
             for (n, p), c in sorted(self.relations.items()) if c["rows"]],
        )
        family(
            "ndlog_view_changes_total", "counter",
            "Aggregate/arg-extreme group-value transitions per (node, view).",
            [(f'{{node="{n}",relation="{p}"}}', c["view_changes"])
             for (n, p), c in sorted(self.relations.items())
             if c["view_changes"]],
        )
        family(
            "ndlog_view_emitted_total", "counter",
            "View deltas queued after per-chunk netting per (node, view).",
            [(f'{{node="{n}",relation="{p}"}}', c["view_emitted"])
             for (n, p), c in sorted(self.relations.items())
             if c["view_changes"]],
        )
        for gauge, kind, help_text in (
            ("steps", "counter", "Deltas consumed off the queue."),
            ("inferences", "counter", "Total body instantiations."),
            ("netted", "counter",
             "Deltas annihilated by Z-set folding at the queue."),
            ("queue_depth", "gauge", "Current delta-queue length."),
            ("queue_peak", "gauge", "High-water delta-queue length."),
            ("fixpoint_batches", "counter",
             "CPU ticks' worth of deltas processed by the node loop."),
            ("cache_hits", "counter", "Query-result cache hits."),
        ):
            family(
                f"ndlog_{gauge}" + ("_total" if kind == "counter" else ""),
                kind, help_text,
                [(f'{{node="{n}"}}', counts[gauge])
                 for n, counts in sorted(self.nodes.items())],
            )
        family(
            "ndlog_fold_ratio", "gauge",
            "Fraction of consumed deltas annihilated by batch folding.",
            [(f'{{node="{n}"}}', counts["fold_ratio"])
             for n, counts in sorted(self.nodes.items())],
        )
        family(
            "ndlog_link_retransmits_total", "counter",
            "Reliable-transport retransmissions per directed link.",
            [(f'{{src="{s}",dst="{d}"}}', count)
             for (s, d), count in sorted(self.links.items())],
        )
        family(
            "ndlog_faults_injected_total", "counter",
            "Chaos-harness fault injections by kind.",
            [(f'{{kind="{k}"}}', count)
             for k, count in sorted(self.faults.items())],
        )
        family(
            "ndlog_transport", "counter",
            "Cluster-wide wire counters, labelled by counter name.",
            [(f'{{counter="{k}"}}', value)
             for k, value in sorted(self.transport.items())],
        )
        return "\n".join(lines) + "\n"


class MetricsRegistry:
    """One registry per deployment: hands out per-node
    :class:`NodeMetrics` holders and assembles snapshots."""

    def __init__(self):
        self.nodes: Dict[str, NodeMetrics] = {}
        #: (src, dst) -> reliable-transport retransmits on that link.
        self.link_retransmits: Dict[Tuple[str, str], int] = {}

    def node(self, name: str) -> NodeMetrics:
        metrics = self.nodes.get(name)
        if metrics is None:
            metrics = self.nodes[name] = NodeMetrics(name)
        return metrics

    def snapshot(self, cluster) -> MetricsSnapshot:
        """Assemble a snapshot by merging the push counters with a pull
        over the cluster's engines and wire stats."""
        nodes: Dict[str, Dict[str, float]] = {}
        rules: Dict[Tuple[str, str], Dict[str, int]] = {}
        relations: Dict[Tuple[str, str], Dict[str, float]] = {}
        for name, engine in cluster.nodes.items():
            pushed = self.nodes.get(name)
            steps = engine.steps
            netted = engine.cancelled
            nodes[name] = {
                "steps": steps,
                "inferences": engine.inferences,
                "netted": netted,
                "queue_depth": len(engine.queue),
                "queue_peak": pushed.queue_peak if pushed else 0,
                "fixpoint_batches": getattr(
                    engine, "deltas_processed", steps
                ),
                "cache_hits": getattr(engine, "cache_hits", 0),
                "fold_ratio": (netted / steps) if steps else 0.0,
            }
            if pushed is not None:
                for rule, count in pushed.rule_firings.items():
                    rules[(name, rule)] = {
                        "firings": count,
                        "inferences": pushed.rule_inferences.get(rule, 0),
                    }
            preds = set(engine.db.tables)
            if pushed is not None:
                preds.update(pushed.commits)
                preds.update(pushed.retractions)
            for pred in preds:
                table = engine.db.tables.get(pred)
                entry = relations[(name, pred)] = _relation_entry()
                if pushed is not None:
                    entry["commits"] = pushed.commits.get(pred, 0)
                    entry["retractions"] = pushed.retractions.get(pred, 0)
                if table is not None:
                    entry["renewals"] = table.renewals
                    entry["replacements"] = table.replaced
                    entry["run_splits"] = table.run_splits
                    entry["rows"] = len(table)
            for views in (engine.views, engine.argmin_views):
                for pred, view in views.items():
                    slot = relations.setdefault(
                        (name, pred), _relation_entry())
                    slot["view_changes"] += view.changes
                    slot["view_emitted"] += view.emitted
        stats = cluster.stats
        transport = {
            "messages": stats.messages,
            "bytes": sum(size for _, _, size in stats.records),
            "netdeltas_shipped": stats.netdeltas_shipped,
            "netdeltas_coalesced": stats.netdeltas_coalesced,
            "retransmits": stats.retransmits,
            "acks_sent": stats.acks_sent,
            "dup_dropped": stats.dup_dropped,
            "reorders_healed": stats.reorders_healed,
            "links_torn_down": stats.links_torn_down,
            "dropped_no_link": stats.dropped_no_link,
            "malformed_dropped": stats.malformed_dropped,
            "stray_datagrams": stats.stray_datagrams,
        }
        return MetricsSnapshot(
            nodes=nodes,
            rules=rules,
            relations=relations,
            transport=transport,
            links=dict(self.link_retransmits),
            faults=dict(stats.faults_injected),
        )
