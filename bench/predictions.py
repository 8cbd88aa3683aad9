"""Which end-to-end metric each layer should move, on which workload.

Written down before any optimisation, so that a later change can be held
to them: a change to a layer should move the named metric on the named
workload, and the workloads not named should stay within their bounds.
The traced run reports the three predictions it can check on its own.
"""

# layer metric, end-to-end metrics it should move, workloads, most affected first
PREDICTIONS = (
    ("automata.*.self_s", "items_per_s", ("formulas", "xcheck")),
    ("monoid.transition_monoid / generated_morphism .self_s",
     "items_per_s, item_p50_ms, peak_rss_mb (n x n int64 tables)", ("ladder", "corpus")),
    ("monoid.syntactic_order.self_s, .computed", "items_per_s, item_p50_ms",
     ("ladder", "corpus")),
    ("monoid.local_condition / me_submonoid (.distinct) / submonoid_closure / j_upset"
     " / submonoid_view / set_product / is_aperiodic .self_s, monoid.mul.calls",
     "items_per_s, item_p50_ms", ("xcheck", "corpus")),
    ("stability.stability_info / me_s (.distinct) .self_s", "items_per_s",
     ("xcheck", "corpus")),
    ("fragments.analyze.total_s, build_mod_witness, verify_vmod_implication",
     "items_per_s", ("xcheck",)),
    ("fologic.* and modprod.* .self_s", "items_per_s", ("formulas",)),
    ("hierarchy.wv_level / sim_quotient, cli.xcheck_battery .self_s", "items_per_s",
     ("xcheck",)),
    ("cli.generate_corpus", "setup_s", ("corpus", "xcheck")),
)


def _shares(metrics: dict) -> dict:
    own = {name[: -len(".self_s")]: value for name, (value, _) in metrics.items()
           if name.endswith(".self_s")}
    total = sum(own.values()) or 1.0
    return {name: value / total for name, value in own.items()}


def verdict_lines(workload: str, metrics: dict) -> list[str]:
    """The predictions naming this workload, then the ones the traced run
    can check, as measured."""
    lines = [f"predicted to move here: {layer} -> {metric}"
             for layer, metric, where in PREDICTIONS if workload in where]
    shares = _shares(metrics)
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    top = ", ".join(f"{name} {share:.0%}" for name, share in ranked[:4])
    lines.append(f"self-time shares: {top}")
    if workload == "ladder":
        holds = ranked[0][0] == "monoid.syntactic_order"
        lines.append(f"prediction monoid.syntactic_order has the largest self-time share: "
                     f"{'holds' if holds else 'fails'}")
    elif workload == "xcheck":
        pair = shares["stability.me_s"] + shares["monoid.submonoid_closure"]
        rest = max(v for k, v in shares.items()
                   if k not in ("stability.me_s", "monoid.submonoid_closure"))
        lines.append(f"prediction stability.me_s + monoid.submonoid_closure have the largest "
                     f"self-time share ({pair:.0%} vs {rest:.0%}): "
                     f"{'holds' if pair > rest else 'fails'}")
    elif workload == "formulas":
        monoid_s = sum(value for name, (value, _) in metrics.items()
                       if name.startswith("monoid.") and name.endswith(".self_s"))
        lines.append(f"prediction monoid.* self time is 0: "
                     f"{'holds' if monoid_s == 0 else 'fails'} ({monoid_s:.6f} s)")
    return lines
