"""The golden table: the sha256 of every fixed-seed primary output.

A step is one `lfpp` command line (`{dir}` is the run directory), the digest
of each primary output it writes, by file name, and the experiment config it
first writes to the path after `--config`, if any.  `run` runs steps through
`lfpp.cli.main`, so a run under other flags, numpy dispatch levels or
machines is compared with this one table, one output at a time.  The digests
are an AVX-512 x86-64 host's.  A change to the float bits of an output bumps
`lfpp.cache.NUMERICS_VERSION` and re-records here each digest it moves, as
does a deliberate format change (a new LFPF header, a key leaving a JSON
document).
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, Mapping, NamedTuple, Optional, Sequence

from lfpp import clear_estimate_cache
from lfpp.cli import main


class Step(NamedTuple):
    command: str
    digests: Dict[str, str]
    config: Optional[dict] = None


def write_estimates(root: Path, slope: float = 0.45) -> None:
    """Estimate files a1..a5.json with median 3 eps^slope at eps = 2^-k,
    the input of the `fit` step."""
    root.mkdir(exist_ok=True)
    for k in range(1, 6):
        eps = 2.0 ** -k
        med = 3.0 * eps ** slope
        doc = {"epsilon": eps, "median": med, "trials": 50,
               "ci_lo": med * 0.9, "ci_hi": med * 1.1, "master_seed": 1}
        (root / f"a{k}.json").write_text(json.dumps(doc), encoding="utf-8")


def _exp(name: str, config: dict, report: str, rows: str) -> Step:
    return Step(f"exp {name} --config {{dir}}/{name}.cfg.json --out {{dir}}/{name}.json "
                f"--csv {{dir}}/{name}.csv", {f"{name}.json": report, f"{name}.csv": rows},
                config)


# each localized region plus the stencil margin (6 sites at eps 0.25) is
# strictly smaller than the 64-site lattice
_DIST = "dist --field {dir}/f.lfpf --eps 0.25 --xi 0.2 --out {dir}/"
_RATIO = "ratio --xi 0.2 --n 128 --trials 20 --seed 28 --out {dir}/"
_W = [1.6, 1.6, 2.3, 2.3]
_F64 = {"n": 64, "seed": 404}

# One field, two estimates and one `dist` per mode with each smoother.
PIPELINE = [
    Step("field sample --n 64 --seed 11 --out {dir}/f.lfpf", {
        "f.lfpf": "6929a8c51271c54445e6f5734b89e38a29e2ebb9c0cd869933e1b05a3836fcc0"}),
    Step("a-eps --xi 0.2 --eps 0.5 --n 32 --trials 20 --seed 5 --out {dir}/a.json", {
        "a.json": "86c9a760191f91e2d6b6b9a63f9e39a1acc56479b41104d30e16a8ca7c9e906c"}),
    Step("a-eps --xi 0.2 --eps 0.25 --n 32 --trials 20 --seed 5 --localized "
         "--out {dir}/la.json", {
             "la.json": "789ec6809e58ae271d02f095fdd53a8a3cd056dd97b0c63553d8c57e0b5aa85c"}),
    Step(_DIST + "d.json --from 1.2,1.5 --to 2.6,2.4 --emit-path {dir}/p.csv", {
        "d.json": "81546350ce48fa432a05ec652c195564dc336058f77babd37d84081766d292cf",
        "p.csv": "8c9bb20fa36b44877922d532b8015272447f62c969cce5f69e78bd8b543e9109"}),
    Step(_DIST + "c.json --crossing rect:1.5,1.5,2.5,2.5", {
        "c.json": "932eab7de64e1f3c7561f1b1a6a8dfc1bfe03d88ecb0a274bd6748c482d6d465"}),
    Step(_DIST + "w.json --from 1.5,1.8 --to 2.5,2.2 --within disk:2,2,0.75 "
         "--emit-path {dir}/wp.csv", {
             "w.json": "88f08217bceada70f2bc1a2d8984d078157864d32ace8e15bd41f58ec626020d",
             "wp.csv": "92edd4da9f0630ac2bfbb418e7d2c38eec97a03ad4631a9ce6f7a88739721830"}),
    Step(_DIST + "r.json --around annulus:2,2,0.4,0.8 --emit-path {dir}/rp.csv", {
        "r.json": "928ad9327865a025863a2551ee42d77dfd3b3ef966b62292ce94aed2baf2d7c4",
        "rp.csv": "697da152b13abf612f780de044d22084da09c73d7667efe52d15a679e942167c"}),
    Step(_DIST + "ld.json --localized --from 1.2,1.5 --to 2.6,2.4 --emit-path {dir}/ldp.csv", {
        "ld.json": "bf015f5aabefe32c293ca4905d0d2c3d73871e74ee18d75b0f1224fbc28898dc",
        "ldp.csv": "095c17a4bed0988d16beeab557ced5feb923bd36bcb891384c3bf83cae151d28"}),
    Step(_DIST + "lc.json --localized --crossing rect:1.5,1.5,2.5,2.5 "
         "--emit-path {dir}/lcp.csv", {
             "lc.json": "b9efe6efec8cba30d66ef098c4296c4d88c6585ab35897b85f462dcbf4fe6ee1",
             "lcp.csv": "349cd4e1a40be5b656645bab29b755203b8a5c89f0347d2a961a9b996a7314c1"}),
    Step(_DIST + "lw.json --localized --from 1.5,1.8 --to 2.5,2.2 --within disk:2,2,0.75 "
         "--emit-path {dir}/lwp.csv", {
             "lw.json": "b933e0a789da58b6a718561a7d04e674312e82f4954fdc37deed182cd9449c3d",
             "lwp.csv": "dc24cad06abe4477bd5661b9fce9ec652597aa6e375df2bd898065b0b1595488"}),
    Step(_DIST + "lr.json --localized --around annulus:2,2,0.4,0.8 --emit-path {dir}/lrp.csv", {
        "lr.json": "89854f157bd6420772d4edbd504cc5143978339af202a92bcd588904e83558c4",
        "lrp.csv": "615628338d8d79229d1af6a058cd35d47664e1183348a4eebe08e45dedb5c671"}),
]

STEPS = PIPELINE + [
    Step("fit --in {dir}/est --xi 0.2 --out {dir}/fit.json", {
        "fit.json": "69befd5443c274d7141b4b07a80c876bb79df4f925d7bd70453632caa3b5dbf6"}),
    # `ratio` fitting q_hat from its ladder, then at a given q_hat
    Step("ratio --xi 0.2 --eps 2,1,0.5,0.25 --r 2 --n 64 --trials 20 --seed 5 "
         "--out {dir}/ratio.json", {
             "ratio.json": "8afa9663fe9b47b1018955cc44f47ffa69f1e65ee82888d29ef9cf0b859b2a86"}),
    Step("ratio --xi 0.2 --eps 2,1,0.5,0.25 --r 2 --n 64 --trials 20 --seed 5 "
         "--q-hat 2.5 --out {dir}/ratio_q.json", {
             "ratio_q.json": "c87e7d6dc62b4ca065fe7a6cbf6122af8b042ab4f164e5eef8431bd8ecba289f"}),
    # the same at n = 128, and localized.  exp(xi * h) absorbs most one-ulp
    # moves of h, so a last-bit slip in sampling or smoothing seldom shows
    # here; the bitwise properties against tests/oracles.py catch those.
    Step(_RATIO + "ratio128.json --eps 0.5,0.25,0.125,0.0625 --r 0.5", {
        "ratio128.json": "3643dd862073d498ba970cfe6833c69f35bc2a6197dc2059263f206adcb2d155"}),
    Step(_RATIO + "ratio128_q.json --eps 0.5,0.25,0.125,0.0625 --r 0.5 --q-hat 2.5", {
        "ratio128_q.json": "70ff56d70a68291f496aaa62be7e91ede0895fbd9796126072cdb3805eda568d"}),
    Step(_RATIO + "ratio128_loc.json --eps 0.25,0.125 --r 2 --q-hat 2.5 --localized", {
        "ratio128_loc.json": "03469e6d27515f1ee1f962062cbf38981cefc00f419e5048d70f32bed15115d2"}),
    # one small admissible config per experiment: its report, then its CSV rows
    _exp("weyl_shift_test", {"field": _F64, "epsilon": 0.25, "c": 1.0, "xi": 0.2,
                             "pairs": {"window": _W, "seed": 7, "count": 3}},
         "6a426f8754d066c21f846b9bc889b2b26c480599286d6277d89d64e70740e27e",
         "7794f220b486e5d44be482e94dfa017c8aa085e04bda2dbc8b406837b6057067"),
    _exp("scale_covariance_test", {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
                                   "mc": {"n": 64, "trials": 20, "seed": 7}},
         "8a51a51b993dc31da12e1a13c1afe64e711f6aa80ed408850d5720157bd4ff50",
         "a8ce6d5293703787b3bbccc944a09440d11ac24e87644a2ea7f746d4cccc3b63"),
    _exp("localized_gap", {"field": {"n": 64, "spacing": 0.0625, "seed": 404},
                           "eps_ladder": [0.25, 0.125], "window": _W, "xi": 0.2},
         "58af7a23502f7f19d84f1ec643bdbda8d87ec93e3bbf780fe3b175161375f1b6",
         "0f5e068a7529c7ce963baf9e334ea6c1eeb24cd6ffc566c137fbe35ffb31eb0a"),
    _exp("convergence_diagnostic",
         {"pairs": [[[1.6, 1.7], [2.3, 2.2]], [[1.5, 1.5], [2.4, 2.4]]],
          "eps_ladder": [0.25, 0.125, 0.0625, 0.03125], "xi": 0.2,
          "mc": {"n": 256, "trials": 20, "seed": 11}},
         "2873d970186db35862baf27874f2cde78bd0b73b32026b220302e842ac7ae930",
         "371f0706f4ec676abba911b01f51e42b9fd4cd03ee2767b86cf3f1c2e934f121"),
    _exp("annulus_event_stats", {"epsilon": 0.25, "r_set": [2.0], "alpha": 0.9, "xi": 0.2,
                                 "mc": {"n": 64, "trials": 20, "seed": 13}},
         "7c83131dcb12f444020f7bbf55606e2eea9b4e3ff526b28ed96c474ae36f19ef",
         "1604cebf39cb242d574ff495396394bf951866845d621eef20394fffe755ecf8"),
    _exp("gmc_mass", {"field": {"n": 64, "seed": 404, "kind": "dirichlet"}, "gamma": 1.0,
                      "eps_ladder": [0.5, 0.25, 0.125], "window": [1.5, 1.5, 2.5, 2.5]},
         "da7742f0ddc609d1343a3914ee9d0ae6fa6d412f4a607e4e499319bfc1e9ba13",
         "58e90e6cb6cf6bc37643001df93d88572dfb423028dca047eea17de7272518fe"),
    _exp("field_continuity_check", {"field": {"n": 64, "seed": 404, "origin": [0.5, 0.5]},
                                    "a": 0.5, "n_ladder": [8, 10, 15], "window": _W},
         "b3a535080a57a69742d5fdd17fd8e112c4f045fef00b59f54a63c75013151744",
         "3ea434a6c384617b0dfc112b5cc83ba3d4b0f7c95d87ad11935b7d3c9051d422"),
    _exp("field_sup_bound_check", {"field": {"n": 64, "spacing": 0.03125, "seed": 404},
                                   "eps_ladder": [0.25, 0.125, 0.0625], "eta": 0.1,
                                   "window": [0.6, 0.6, 1.4, 1.4]},
         "6fbb56f21d904aa1e8606c27b4b27f5dd84ae299e19d62e93132c1c18143a673",
         "0c8fae266c6f40d66eab82896d6294cdf35f4cde0d1af00f71881d3ffd682e94"),
    _exp("small_segment_sup", {"field": _F64, "epsilon": 0.25, "zeta": 0.5,
                               "window": [1.5, 1.5, 2.5, 2.5], "xi": 0.2,
                               "mc": {"n": 64, "trials": 20, "seed": 17}},
         "443d4a5971930ce9d1f7b38fe5d74443752858c41ab2a20c8233ae54cd53da39",
         "e0c1fb86aeeef9be431cd15a22823af5f064d9aeee3ddc382e843f6c4f7ea125"),
]

DIGESTS = {name: digest for step in STEPS for name, digest in step.digests.items()}
EXP_STEPS = {step.command.split()[1]: step for step in STEPS
             if step.command.startswith("exp ")}


def run(directory: Path, steps: Sequence[Step] = STEPS,
        flags: Optional[Mapping[str, Sequence[str]]] = None) -> Dict[str, str]:
    """Run `steps` in order into `directory` from an empty estimate memo,
    with `flags[word]` appended to each step whose command word it names,
    and return {output name: sha256} of their outputs.  The directory is
    made, and the estimates the `fit` step reads are written, first."""
    directory.mkdir(exist_ok=True)
    write_estimates(directory / "est")
    clear_estimate_cache()
    for step in steps:
        argv = [arg.format(dir=directory) for arg in step.command.split()]
        if step.config is not None:
            Path(argv[argv.index("--config") + 1]).write_text(
                json.dumps(step.config), encoding="utf-8")
        assert main(argv + list((flags or {}).get(argv[0], ()))) == 0, argv
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for step in steps for name in step.digests}
