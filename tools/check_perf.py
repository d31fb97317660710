#!/usr/bin/env python3
"""Compare a fresh throughput run against the committed baseline.

Usage: check_perf.py BASELINE.json CURRENT.json [--tolerance 0.25]

Reads two BENCH_throughput.json files (schema 5; schema 1-4
baselines still work for the sections they carry) and fails with exit
status 1 if any machine scenario's cycles_per_sec dropped by more
than the tolerance relative to the baseline. Schema-3 files also
carry a "dispatch" section (per execution tier: uop/superblock)
and schema-5 files a "hot" section (four_stream through run() with
hot chunks vs the per-cycle walk); those scenarios are compared the
same way when both files have them. Improvements and
absolute cross-host differences never fail the check; the point is
to catch a change that makes the simulator dramatically slower, not
to pin the host.

--superblock-min-ratio R additionally asserts, on the CURRENT file
alone, that the superblock tier is at least R times the uop tier on
single_stream, and --hot-min-ratio R that run() with hot chunks is
at least R times the per-cycle walk on four_stream — both within-run
ratios are host-speed-independent, so they are the absolute
performance promises CI can hold. Standard library only, so CI can
run it anywhere.

BENCH_serve.json files (schema "serve-2", written by disc-loadgen)
are recognised too: the current file's digest_check must be "ok",
every sweep must be fully accounted for (completed + busy == sent,
zero transport errors), and the migration drill must report zero
digest mismatches. --min-rps R and --min-migrations N add absolute
floors on the best sweep's throughput and on successful migrations;
when the baseline is also a serve file, the best sweep's throughput
is additionally held to the regression tolerance.
"""

import argparse
import json
import sys


def best_rps(data):
    """The highest sustained sweep throughput in a serve file."""
    return max((float(s.get("throughput_rps", 0.0))
                for s in data.get("sweeps", [])), default=0.0)


def check_serve(base, cur, args) -> int:
    """Gate a serve-2 BENCH_serve.json run; see the module docstring."""
    failures = []

    check = cur.get("digest_check")
    print(f"digest_check: {check}")
    if check != "ok":
        failures.append(f"digest_check is {check!r}, want 'ok'")

    mig = cur.get("migrations", {})
    attempted = int(mig.get("attempted", 0))
    ok = int(mig.get("ok", 0))
    mismatches = int(mig.get("digest_mismatches", 0))
    print(f"migrations: attempted {attempted}  ok {ok}  "
          f"mismatches {mismatches}")
    if mismatches:
        failures.append(f"{mismatches} migration digest mismatch(es)")
    if args.min_migrations is not None and ok < args.min_migrations:
        failures.append(f"only {ok} successful migrations "
                        f"(floor {args.min_migrations})")

    for s in cur.get("sweeps", []):
        sent = int(s.get("sent", 0))
        completed = int(s.get("completed", 0))
        busy = (int(s.get("busy_queue_full", 0)) +
                int(s.get("busy_deadline", 0)) +
                int(s.get("busy_draining", 0)))
        errors = int(s.get("errors", 0))
        rate = s.get("rate_rps")
        ok = errors == 0 and completed + busy == sent
        print(f"sweep {rate:>6} rps: sent {sent}  completed "
              f"{completed}  busy {busy}  errors {errors}  "
              f"{'ok' if ok else 'FAIL'}")
        if errors:
            failures.append(f"sweep {rate}: {errors} transport errors")
        if completed + busy != sent:
            failures.append(f"sweep {rate}: {sent - completed - busy} "
                            f"requests unaccounted for")

    rps = best_rps(cur)
    if args.min_rps is not None:
        ok = rps >= args.min_rps
        print(f"best sweep {rps:.1f} rps (floor {args.min_rps:.0f})  "
              f"{'ok' if ok else 'TOO LOW'}")
        if not ok:
            failures.append(f"best sweep {rps:.1f} rps is below the "
                            f"{args.min_rps:.0f} rps floor")

    if str(base.get("schema", "")).startswith("serve"):
        base_rps = best_rps(base)
        floor = (1.0 - args.tolerance) * base_rps
        ok = rps >= floor
        print(f"baseline best {base_rps:.1f} rps  current "
              f"{rps:.1f} rps  {'ok' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(f"best sweep {rps:.1f} rps regressed "
                            f"below {floor:.1f} rps "
                            f"({args.tolerance * 100:.0f}% under "
                            f"baseline {base_rps:.1f})")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nserve results clean")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="fail on >tolerance throughput regressions")
    ap.add_argument("baseline", help="committed BENCH_throughput.json")
    ap.add_argument("current", help="freshly produced results")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop (default 0.25)")
    ap.add_argument("--superblock-min-ratio", type=float, default=None,
                    help="fail unless current dispatch.single_stream "
                         "superblock/uop cycles_per_sec >= this ratio")
    ap.add_argument("--hot-min-ratio", type=float, default=None,
                    help="fail unless the current hot.four_stream "
                         "hot/per-cycle ratio >= this ratio")
    ap.add_argument("--min-rps", type=float, default=None,
                    help="serve files: fail unless the best sweep "
                         "sustained at least this many req/s")
    ap.add_argument("--min-migrations", type=int, default=None,
                    help="serve files: fail unless at least this many "
                         "migrations succeeded digest-clean")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    if str(cur.get("schema", "")).startswith("serve"):
        return check_serve(base, cur, args)

    # Only compare schemas this script understands; a result file from
    # a newer tool is skipped rather than misread.
    known = (1, 2, 3, 4, 5)
    for name, data in (("baseline", base), ("current", cur)):
        schema = data.get("schema")
        if schema not in known:
            print(f"skipping: {name} file has unknown schema "
                  f"{schema!r} (known: {known})")
            return 0

    floor = 1.0 - args.tolerance
    failures = []
    for scenario, b in base.get("machine", {}).items():
        c = cur.get("machine", {}).get(scenario)
        if c is None:
            failures.append(f"{scenario}: missing from current results")
            continue
        bv = float(b["cycles_per_sec"])
        cv = float(c["cycles_per_sec"])
        ratio = cv / bv if bv > 0 else 0.0
        ok = ratio >= floor
        print(f"{scenario:16s} baseline {bv / 1e6:9.2f}M/s  "
              f"current {cv / 1e6:9.2f}M/s  ratio {ratio:5.2f}  "
              f"{'ok' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(
                f"{scenario}: {cv / 1e6:.2f}M/s is "
                f"{(1 - ratio) * 100:.0f}% below baseline "
                f"{bv / 1e6:.2f}M/s (tolerance "
                f"{args.tolerance * 100:.0f}%)")

    # Schema-3 dispatch section: same regression rule per tier.
    for scenario, btiers in base.get("dispatch", {}).items():
        ctiers = cur.get("dispatch", {}).get(scenario)
        if ctiers is None:
            failures.append(
                f"dispatch.{scenario}: missing from current results")
            continue
        for tier, b in btiers.items():
            c = ctiers.get(tier)
            name = f"dispatch.{scenario}.{tier}"
            if c is None:
                failures.append(f"{name}: missing from current results")
                continue
            bv = float(b["cycles_per_sec"])
            cv = float(c["cycles_per_sec"])
            ratio = cv / bv if bv > 0 else 0.0
            ok = ratio >= floor
            print(f"{name:32s} baseline {bv / 1e6:9.2f}M/s  "
                  f"current {cv / 1e6:9.2f}M/s  ratio {ratio:5.2f}  "
                  f"{'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(
                    f"{name}: {cv / 1e6:.2f}M/s is "
                    f"{(1 - ratio) * 100:.0f}% below baseline "
                    f"{bv / 1e6:.2f}M/s (tolerance "
                    f"{args.tolerance * 100:.0f}%)")

    # Schema-5 hot section: regression rule on the hot-chunk rate per
    # scenario when both files carry it.
    for scenario, b in base.get("hot", {}).items():
        c = cur.get("hot", {}).get(scenario)
        name = f"hot.{scenario}"
        if c is None:
            failures.append(f"{name}: missing from current results")
            continue
        bv = float(b["hot_cycles_per_sec"])
        cv = float(c["hot_cycles_per_sec"])
        ratio = cv / bv if bv > 0 else 0.0
        ok = ratio >= floor
        print(f"{name:32s} baseline {bv / 1e6:9.2f}M/s  "
              f"current {cv / 1e6:9.2f}M/s  ratio {ratio:5.2f}  "
              f"{'ok' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(
                f"{name}: {cv / 1e6:.2f}M/s is "
                f"{(1 - ratio) * 100:.0f}% below baseline "
                f"{bv / 1e6:.2f}M/s (tolerance "
                f"{args.tolerance * 100:.0f}%)")

    if args.hot_min_ratio is not None:
        c = cur.get("hot", {}).get("four_stream")
        if c is None:
            failures.append("hot-min-ratio: current file has no "
                            "hot.four_stream point")
        else:
            ratio = float(c.get("ratio", 0.0))
            ok = ratio >= args.hot_min_ratio
            print(f"hot/per-cycle four_stream ratio {ratio:5.2f}  "
                  f"(floor {args.hot_min_ratio:.2f})  "
                  f"{'ok' if ok else 'TOO LOW'}")
            if not ok:
                failures.append(
                    f"hot chunks on four_stream are only {ratio:.2f}x "
                    f"the per-cycle walk (floor "
                    f"{args.hot_min_ratio:.2f}x)")

    if args.superblock_min_ratio is not None:
        tiers = cur.get("dispatch", {}).get("single_stream", {})
        sb = tiers.get("superblock")
        uop = tiers.get("uop")
        if not sb or not uop:
            failures.append("superblock-min-ratio: current file has no "
                            "dispatch.single_stream superblock/uop data")
        else:
            sv = float(sb["cycles_per_sec"])
            uv = float(uop["cycles_per_sec"])
            ratio = sv / uv if uv > 0 else 0.0
            ok = ratio >= args.superblock_min_ratio
            print(f"superblock/uop single_stream ratio {ratio:5.2f}  "
                  f"(floor {args.superblock_min_ratio:.2f})  "
                  f"{'ok' if ok else 'TOO LOW'}")
            if not ok:
                failures.append(
                    f"superblock single_stream is only {ratio:.2f}x the "
                    f"uop tier (floor "
                    f"{args.superblock_min_ratio:.2f}x)")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall scenarios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
