#!/usr/bin/env python3
"""Statistical-equivalence check between two replicated sweeps.

Reads two sweep JSON files (``osumac_sim --scenario F --out X.json``) that
ran the same replicated scenario file on two builds, groups each file's
points by scenario (the name before ``#r``), and compares every figure
metric of every scenario with a Welch two-sample t-test.  The whole family
of comparisons is Holm-corrected at family alpha 0.05; the exit
status is 1 if any comparison is rejected, so the script gates a deliberate
re-pin of lossy-channel goldens (EXPERIMENTS.md, "Channel sampler").

    python3 tools/channel_equivalence.py old.json new.json [--markdown]

A metric whose replicates are identical in both runs counts as p = 1; one
that is constant within each run but differs between them counts as p = 0.
Standard library only: the t distribution's tail comes from the
regularized incomplete beta function.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections import OrderedDict

# Holm family-wise error rate of the whole comparison family.
ALPHA = 0.05

# FigureFields in src/exp/emit.cc, in emission order.
FIGURE_METRICS = (
    "utilization", "mean_packet_delay_cycles", "p95_packet_delay_cycles",
    "mean_message_delay_cycles", "collision_probability",
    "mean_reservation_latency", "control_overhead", "fairness_index",
    "second_cf_gain", "avg_data_slots_used", "message_drop_rate",
    "gps_access_delay_max_s", "gps_reports_per_bus_per_cycle",
)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                     a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def mean_var(xs: list[float]) -> tuple[float, float]:
    m = sum(xs) / len(xs)
    return m, sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


def welch(a: list[float], b: list[float]) -> tuple[float, float, float]:
    """(t, df, two-sided p) of Welch's unequal-variance t-test."""
    ma, va = mean_var(a)
    mb, vb = mean_var(b)
    sa, sb = va / len(a), vb / len(b)
    se2 = sa + sb
    if se2 == 0.0:
        return 0.0, float("nan"), 1.0 if ma == mb else 0.0
    t = (mb - ma) / math.sqrt(se2)
    df = se2 * se2 / (sa * sa / (len(a) - 1) + sb * sb / (len(b) - 1))
    return t, df, t_two_sided_p(t, df)


def holm(pvalues: list[float], alpha: float) -> list[bool]:
    """Holm step-down: True where the hypothesis is rejected."""
    order = sorted(range(len(pvalues)), key=lambda i: pvalues[i])
    rejected = [False] * len(pvalues)
    m = len(pvalues)
    for rank, i in enumerate(order):
        if pvalues[i] > alpha / (m - rank):
            break
        rejected[i] = True
    return rejected


def load_groups(path: str) -> "OrderedDict[str, list[dict]]":
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    groups: OrderedDict[str, list[dict]] = OrderedDict()
    for point in doc["points"]:
        groups.setdefault(point["name"].split("#")[0], []).append(point)
    return groups


def compare(old_path: str, new_path: str) -> tuple[list[dict], list[str]]:
    old, new = load_groups(old_path), load_groups(new_path)
    errors = []
    if list(old) != list(new):
        errors.append(f"scenario sets differ: {list(old)} vs {list(new)}")
    rows = []
    for name in old:
        if name not in new:
            continue
        a_pts, b_pts = old[name], new[name]
        if [p["seed"] for p in a_pts] != [p["seed"] for p in b_pts]:
            errors.append(f"{name}: seed lists differ")
        if len(a_pts) < 2:
            errors.append(f"{name}: needs at least 2 replications")
            continue
        for metric in FIGURE_METRICS:
            a = [float(p["metrics"][metric]) for p in a_pts]
            b = [float(p["metrics"][metric]) for p in b_pts]
            t, df, p = welch(a, b)
            rows.append({"scenario": name, "metric": metric, "n": len(a),
                         "old": sum(a) / len(a), "new": sum(b) / len(b),
                         "t": t, "df": df, "p": p, "identical": a == b})
    for row, rej in zip(rows, holm([r["p"] for r in rows], ALPHA)):
        row["rejected"] = rej
    return rows, errors


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="reference sweep JSON")
    ap.add_argument("new", help="candidate sweep JSON")
    ap.add_argument("--markdown", action="store_true",
                    help="print the per-comparison table as Markdown")
    args = ap.parse_args(argv)

    rows, errors = compare(args.old, args.new)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if args.markdown:
        print("| scenario | metric | old mean | new mean | t | p |")
        print("|---|---|---|---|---|---|")
    for r in rows:
        verdict = "REJECT" if r["rejected"] else ("same" if r["identical"] else "ok")
        if args.markdown:
            t = "identical" if r["identical"] else f"{r['t']:+.2f}"
            p = "—" if r["identical"] else f"{r['p']:.3f}"
            print(f"| {r['scenario']} | {r['metric']} | {r['old']:.6g} | "
                  f"{r['new']:.6g} | {t} | {p} |")
        else:
            print(f"{r['scenario']:<16} {r['metric']:<32} old={r['old']:<12.6g} "
                  f"new={r['new']:<12.6g} t={r['t']:+6.2f} p={r['p']:.4f} {verdict}")
    tested = [r for r in rows if not r["identical"]]
    max_t = max((abs(r["t"]) for r in tested), default=0.0)
    min_p = min((r["p"] for r in tested), default=1.0)
    rejected = sum(r["rejected"] for r in rows)
    n = rows[0]["n"] if rows else 0
    print(f"{len(rows)} comparisons ({len(rows) - len(tested)} bit-identical), "
          f"{n} replications each; max |t| = {max_t:.2f}, min p = {min_p:.4f}; "
          f"Holm family alpha = {ALPHA}: {rejected} rejected")
    return 1 if rejected or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
