"""Per-layer metrics computed from a traced run's spans and counters."""

from __future__ import annotations

from tracer import ROOT


def report(tr, untraced_s: float) -> dict:
    """Print the self-time breakdown and return every per-layer value by name."""
    summary = tr.summary()
    root = summary.get(ROOT, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    traced_s = root["total_s"]
    attributed = traced_s - root["self_s"]
    overhead = traced_s / untraced_s - 1.0
    print(f"traced op wall {traced_s:.4f} s over {root['calls']} ops; "
          f"untraced {untraced_s:.4f} s; overhead {overhead:+.4f}")
    print(f"layer self times sum to {attributed:.4f} s; unattributed "
          f"{root['self_s']:.4f} s ({root['self_s'] / traced_s:.4%} of traced op wall)")
    ranked = sorted(((rec["self_s"], name) for name, rec in summary.items() if name != ROOT),
                    reverse=True)
    for self_s, name in ranked[:8]:
        print(f"  self {self_s:10.4f} s  {self_s / traced_s:7.2%}  "
              f"{name} ({summary[name]['calls']} calls)")

    values = {"trace.overhead_frac": overhead}
    for name, rec in summary.items():
        values[f"{name}.calls"] = rec["calls"]
        values[f"{name}.self_s"] = rec["self_s"]
    counts = tr.counts
    values.update({k: v for k, v in counts.items() if not k.startswith("sigma.sigma_for_f.g")})
    for grid in (400, 800):
        calls = counts.get(f"sigma.sigma_for_f.g{grid}.calls", 0)
        values[f"sigma.sigma_for_f.g{grid}.ms_per_call"] = (
            1e3 * counts.get(f"sigma.sigma_for_f.g{grid}.s", 0.0) / calls if calls else 0.0)
    in_class = tr.calls_under("plf.PLFunction.in_class", "sigma.sigma_tau")
    values["sigma.feasible_frac"] = (
        tr.calls_under("sigma.sigma_for_f", "sigma.sigma_tau") / in_class if in_class else 0.0)
    return values
