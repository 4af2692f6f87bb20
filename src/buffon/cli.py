"""Command-line entry point: build / disc / sweep / tails / length-study /
oracle-check / plot.

Every subcommand is a thin adapter over the library modules; no numeric
logic lives here.  Exit codes: 0 success, 1 validation error (message names
the offending field), I/O error or an allocation refused for want of
memory, 2 internal assertion failure (full counterexample printed).  Each
entry of a --config JSON object is read as the flag `--key=value`, placed
before the explicit flags, so explicit flags win; `null` leaves the flag's
default, and an unknown key is refused as an unknown flag would be.  Flags
are never abbreviated, and argparse names a missing required flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness as hz
from . import rng
from . import steinhaus as sh
from .discrepancy import SupConfig, estimate_sup, format_report, save_report
from .geometry import ValidationError, load_body, read_json

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit(1)
        raise ValidationError("arguments", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="buffon", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)

    def sub(name, run, help_text, seeded=True):
        p = subs.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="JSON file of flag values (strict keys)")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(run=run)
        return p

    p = sub("build", _cmd_build, "build a set at an exact target length, save a manifest")
    p.add_argument("--body", required=True, help="body JSON file")
    p.add_argument("--length", type=float, required=True, help="target total length L")
    p.add_argument("--mode", choices=tuple(sh.MODES), default="shifted")
    p.add_argument("--out", required=True, help="manifest output path")

    p = sub("disc", _cmd_disc, "estimate the discrepancy sup of a saved set")
    p.add_argument("--set", dest="set", required=True, help="set manifest path")
    p.add_argument("--theta-res", type=int, default=192)
    p.add_argument("--offset-res", type=int, default=192)
    p.add_argument("--refine", type=int, default=2)
    p.add_argument("--out", default=None, help="report JSON output path")

    p = sub("sweep", _cmd_sweep, "scaling sweep over a geometric grid of target lengths")
    p.add_argument("--body", required=True, help="body JSON file")
    p.add_argument("--mode", choices=tuple(sh.MODES), default="shifted")
    p.add_argument("--l-min", type=float, required=True)
    p.add_argument("--l-max", type=float, required=True)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--theta-res", type=int, default=96)
    p.add_argument("--offset-res", type=int, default=96)
    p.add_argument("--refine", type=int, default=2)
    p.add_argument("--workers", type=int, default=1,
                   help="processes running rows at once (>= 1), each counting on one CPU")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub("tails", _cmd_tails, "empirical |Z| tail of a fixed segment vs the bound")
    p.add_argument("--body", required=True, help="body JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--y1", type=float, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--s-values", default="8,16,24,32",
                   help="comma-separated thresholds")
    p.add_argument("--out", default=None, help="also write the table here")

    p = sub("length-study", _cmd_length_study, "Monte Carlo length concentration check")
    p.add_argument("--body", required=True, help="body JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--out", default=None, help="also write the summary here")

    p = sub("oracle-check", _cmd_oracle_check, "cross-validate counting against the oracle")
    p.add_argument("--body", required=True, help="body JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=tuple(sh.MODES), default="shifted")
    p.add_argument("--lines", type=int, default=10_000)

    p = sub("plot", _cmd_plot, "emit a gnuplot data+script pair from a sweep CSV",
            seeded=False)
    p.add_argument("--csv", required=True, help="sweep CSV path")
    p.add_argument("--y-field", default="sup_estimate")
    p.add_argument("--deflate", type=float, default=None,
                   help="divide y by (log L)^this before plotting")
    p.add_argument("--out", required=True, help="output prefix (.dat and .gp)")

    return parser


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv once, each --config entry read as the flag `--key=value`
    placed after the subcommand and before the explicit flags, so that an
    explicit flag wins; a null entry leaves the flag's default."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is not None:
        cfg = read_json(path, "config")
        if not isinstance(cfg, dict):
            raise ValidationError("config", "config file must hold a JSON object")
        if "config" in cfg:
            raise ValidationError("config", "a config file cannot set --config")
        flags = [f"--{key.replace('_', '-')}={value}"
                 for key, value in cfg.items() if value is not None]
        argv = [*argv[:1], *flags, *argv[1:]]
    return parser.parse_args(argv)


def _sup_config(ns) -> SupConfig:
    return SupConfig(theta_resolution=ns.theta_res, offset_resolution=ns.offset_res,
                     refine_rounds=ns.refine, seed=ns.seed)


def _emit(text: str, out_path) -> None:
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


def _cmd_build(ns) -> int:
    body = load_body(ns.body)
    sset, _ = sh.build_exact(body, ns.length, ns.mode, ns.seed)
    sh.save_manifest(sset, ns.out)
    actual = sh.total_length(sset)
    print(f"n={sset.n} eps={sset.eps!r} L_actual={actual!r} "
          f"padding={sset.padding_count} -> {ns.out}")
    return 0


def _cmd_disc(ns) -> int:
    sset = sh.load_manifest(ns.set)
    report = estimate_sup(sset, sh.total_length(sset), _sup_config(ns))
    sys.stdout.write(format_report(report))
    if ns.out:
        save_report(report, ns.out)
    return 0


def _cmd_sweep(ns) -> int:
    body = load_body(ns.body)
    l_values = hz.length_grid(ns.l_min, ns.l_max, ns.points)
    rows = hz.run_sweep(body, l_values, ns.mode, _sup_config(ns), seed=ns.seed,
                        workers=ns.workers)
    hz.write_sweep_csv(rows, ns.out)
    for row in rows:
        status = row.error or (
            f"n={row.n} eps={row.eps:.3e} sup={row.sup_estimate!r} "
            f"({row.wall_time_seconds:.1f}s)")
        print(f"L={row.L_target!r}: {status}")
    print(f"wrote {len(rows)} rows -> {ns.out}")
    return 0


def _cmd_tails(ns) -> int:
    body = load_body(ns.body)
    try:
        s_values = [float(s) for s in ns.s_values.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError("s_values", f"bad threshold list: {exc}")
    study = hz.z_tail_study(
        body, ns.n, ns.eps, (ns.x0, ns.y0), (ns.x1, ns.y1), ns.trials,
        s_values, seed=ns.seed)
    lines = [
        f"s={row.s!r} empirical={row.empirical_tail!r} "
        f"bound={row.hoeffding_bound!r} band={row.sampling_band!r}"
        for row in study.rows
    ]
    lines.append(f"mean_z={study.mean_z!r} trials={study.trials} "
                 f"violations={study.violations}")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def _cmd_length_study(ns) -> int:
    body = load_body(ns.body)
    res = hz.length_study(body, ns.n, ns.eps, ns.trials, seed=ns.seed)
    text = "".join(f"{key}={res[key]!r}\n" for key in sorted(res))
    _emit(text, ns.out)
    return 0


def _cmd_oracle_check(ns) -> int:
    sset = sh.mode_set(load_body(ns.body), ns.n, ns.eps, ns.mode, ns.seed)
    check = hz.run_oracle_check(sset, ns.lines, seed=rng.derive_seed(ns.seed, "lines"))
    print(f"{check.agreements}/{check.comparisons} agree")
    if not check.all_agree:
        for theta, offset, fast, reference in check.mismatches:
            print(f"mismatch: theta={theta!r} offset={offset!r} "
                  f"count_line={fast} oracle={reference}")
        verdict = (f"oracle disagreement on {len(check.mismatches)} lines"
                   if check.mismatches else "no compared line disagreed")
        raise AssertionError(
            f"{verdict}; {check.skipped} lines skipped as exceptional "
            f"(within rounding of a segment endpoint)")
    return 0


def _cmd_plot(ns) -> int:
    rows = hz.read_sweep_csv(ns.csv)
    fit = hz.fit_slope(rows, y_field=ns.y_field, log_correction=ns.deflate)
    dat_path = f"{ns.out}.dat"
    gp_path = f"{ns.out}.gp"
    dat_lines = ["# L y_plotted y_raw"] + [
        f"{x!r} {plotted!r} {y!r}"
        for x, y, plotted in hz.fit_points(
            rows, y_field=ns.y_field, log_correction=ns.deflate)]
    Path(dat_path).write_text("\n".join(dat_lines) + "\n")
    dat_name = dat_path.rsplit("/", 1)[-1]
    deflate_note = ("" if ns.deflate is None
                    else f" / (log L)^{ns.deflate!r}")
    script = "\n".join([
        "set logscale xy",
        'set xlabel "L"',
        f'set ylabel "{ns.y_field}{deflate_note}"',
        f'set title "fitted exponent {fit.exponent!r} '
        f'(r^2 {fit.r_squared!r}, {fit.points_used} points)"',
        f"a = {fit.exponent!r}",
        f"b = {fit.intercept!r}",
        f'plot "{dat_name}" using 1:2 with linespoints title "measured", \\',
        '     exp(b) * x**a title "fit"',
        "",
    ])
    Path(gp_path).write_text(script)
    print(f"exponent={fit.exponent!r} r_squared={fit.r_squared!r} "
          f"points={fit.points_used}")
    print(f"wrote {dat_path} and {gp_path}")
    return 0


def main(argv=None) -> int:
    try:
        ns = _parse(_build_parser(), sys.argv[1:] if argv is None else argv)
        return ns.run(ns)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a pitch so fine the lattice cannot be held
        print(f"error: memory: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
