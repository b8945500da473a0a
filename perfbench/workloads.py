"""The three benchmark workloads.

Each workload has a set-up step (``prepare``) and a fixed list of
operations; one pass runs every operation once.  An operation is one
design job or one ``simulate_point`` call.  Every call into quantldpc goes
through a module attribute at call time, so the tracer's wrappers see it.

The seed is the only input.  The decode workloads use it as the
``simulate_point`` master noise seed.  The design workloads shift their
design SNRs (and threshold window) by one of :data:`DESIGN_OFFSETS_DB`,
picked by ``seed % 7``; seed 0 is the paper point exactly.  The design
search is chaotic near the threshold: +5e-6 dB adds a full-grid fallback to
the comp_uni design (+40% time), +2e-6 dB makes the float window width
exceed the 0.05 dB resolution by an ulp so the comp/comp bisection runs a
second failing 150-iteration probe (+50%).  The offsets are the ones up to 14e-6 dB that keep every job's search path
(probe list and verdicts, iteration counts, design_uniform call and step
counts) identical to the paper point's, so the run-to-run spread measures
the machine and not the input; masses, MI values and fingerprints differ.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import fingerprint as fp

PAPER_POINT = dict(dc=32, dv=6, w=4, wphi=8, rate=0.841)
DESIGN_OFFSETS_DB = tuple(k * 1e-6 for k in (0, 1, 6, 7, 12, 13, 14))
#: mi_vn a design must reach to count as converged (evolution.EARLY_STOP_MI)
CONVERGED_MI = 1.0 - 1e-6


def design_shift_db(seed):
    return DESIGN_OFFSETS_DB[seed % len(DESIGN_OFFSETS_DB)]


def _config(ql, cn, vn, snr, iterations, **overrides):
    params = dict(PAPER_POINT, **overrides)
    return ql.evolution.EnsembleConfig(
        iterations=iterations, cn_variant=cn, vn_variant=vn,
        design_ebn0_db=snr, **params)


class Op:
    """One timed operation: ``run()`` returns the raw result, ``digest``
    turns it into a fingerprint fragment, ``check`` names what is wrong
    with it (or returns None) beyond the fingerprint."""

    def __init__(self, label, run, digest, check, frames=0):
        self.label = label
        self.run = run
        self.digest = digest
        self.check = check
        self.frames = frames        # frames decoded, for frames_per_s


# ---------------------------------------------------------------------------
# design workloads
# ---------------------------------------------------------------------------

class ThresholdDP:
    name = "threshold_dp"
    why = ("de_threshold comp/comp and min/comp, 150 iterations; the failing "
           "3.0 dB probe spends ~95% in design_nonuniform's dense DP")
    jobs = (("comp", "comp"), ("min", "comp"))
    #: probe verdicts of the paper point: comp/comp has one failing probe
    verdicts = {"comp/comp": (False, True, True, True),
                "min/comp": (False, True, True, False, False)}
    window = (3.0, 3.2)
    target_mi = 0.9999
    resolution_db = 0.05
    iterations = 150

    def input_id(self, seed):
        return seed % len(DESIGN_OFFSETS_DB)

    def prepare(self, ql, seed, root):
        s = design_shift_db(seed)
        lo, hi = self.window[0] + s, self.window[1] + s
        return [(f"{cn}/{vn}", _config(ql, cn, vn, hi, self.iterations), (lo, hi))
                for cn, vn in self.jobs]

    def ops(self, ql, state):
        def job(cfg, window):
            return lambda: ql.evolution.de_threshold(cfg, self.target_mi, window,
                                                     self.resolution_db)

        def check(label):
            def check_result(res):
                got = tuple(ok for _, ok in res.probes)
                if res.status != "ok" or got != self.verdicts[label]:
                    return f"status {res.status}, probe verdicts {got}"
                return None
            return check_result

        return [Op(label, job(cfg, window), fp.threshold, check(label))
                for label, cfg, window in state]


class DesignUniform:
    name = "design_uniform"
    why = ("design_decoder comp_uni/comp_uni and min/comp_uni at 3.3 dB; "
           "~70% in design_uniform's (r, kappa) sweep, the DP only designs the channel")
    jobs = (("comp_uni", "comp_uni"), ("min", "comp_uni"))
    snr_db = 3.3
    iterations = 50

    def input_id(self, seed):
        return seed % len(DESIGN_OFFSETS_DB)

    def prepare(self, ql, seed, root):
        snr = self.snr_db + design_shift_db(seed)
        return [(f"{cn}/{vn}", _config(ql, cn, vn, snr, self.iterations))
                for cn, vn in self.jobs]

    def ops(self, ql, state):
        def job(cfg):
            return lambda: ql.evolution.design_decoder(cfg)

        def check(res):
            _, trajectory = res
            if not trajectory or trajectory[-1][1] < CONVERGED_MI:
                return "design did not converge"
            return None

        return [Op(label, job(cfg), lambda res: fp.artifact(*res), check)
                for label, cfg in state]


# ---------------------------------------------------------------------------
# decode workloads
# ---------------------------------------------------------------------------

class Code:
    """One code of a decode workload: its decoders, their design and the
    SNR points simulated with each."""

    def __init__(self, tag, code, decoders, design, snrs, frames):
        self.tag = tag
        self.code = code            # (function name, args, kwargs)
        self.decoders = decoders    # ((cn, vn), ...)
        self.design = design        # EnsembleConfig overrides
        self.snrs = snrs
        self.frames = frames


class Decode:
    """simulate_point over a fixed frame count on each of its codes.

    The decoders are designed once per checkout by :func:`build` (the
    package's own design code, run on first use) and loaded from that
    cache in ``prepare``.  Op labels are ``<code tag>:<cn>/<vn>@<snr>``;
    each code numbers its points from 0, so its noise does not depend on
    the other codes.
    """

    def __init__(self, name, why, codes):
        self.name = name
        self.why = why
        self.codes = codes

    def input_id(self, seed):
        return seed

    def design_configs(self, ql):
        return [(f"{c.tag}:{cn}/{vn}", _config(ql, cn, vn, **c.design))
                for c in self.codes for cn, vn in c.decoders]

    def prepare(self, ql, seed, root):
        cache = build_dir(root, ql)
        parts = []
        for c in self.codes:
            fn, args, kwargs = c.code
            code = getattr(ql.codes, fn)(*args, **kwargs)
            artifacts = []
            for cn, vn in c.decoders:
                label = f"{cn}/{vn}"
                text = (cache / _artifact_file(self.name, f"{c.tag}:{label}")).read_text(
                    encoding="ascii")
                artifacts.append((label, ql.evolution.DesignArtifact.from_json(text)))
            parts.append((c, code, artifacts))
        return parts, seed

    def ops(self, ql, state):
        parts, seed = state
        out = []
        for c, code, artifacts in parts:
            stop = {"max_frames": c.frames, "target_frame_errors": c.frames + 1}
            index = 0
            for label, art in artifacts:
                for snr in c.snrs:
                    def run(code=code, art=art, snr=snr, stop=stop, index=index):
                        return ql.sim.simulate_point(code, art, snr, stop=stop, seed=seed,
                                                     point_index=index)

                    # the decoder's design is recorded once, with its first point
                    design = fp.artifact(art) if snr == c.snrs[0] else None

                    def digest(point, label=label, design=design):
                        frag = {"decoder": label, **fp.sim_point(point)}
                        if design is not None:
                            frag["design"] = design
                        return frag

                    def check(point, frames=c.frames):
                        if point.frames != frames:
                            return f"{point.frames} frames instead of {frames}"
                        if sum(point.iterations_histogram.values()) != point.frames:
                            return "iteration histogram does not cover every frame"
                        if point.bit_errors < point.frame_errors:
                            return "fewer bit errors than frame errors"
                        return None

                    out.append(Op(f"{c.tag}:{label}@{snr}", run, digest, check, c.frames))
                    index += 1
        return out


WORKLOADS = {w.name: w for w in (
    ThresholdDP(),
    DesignUniform(),
    Decode("decode",
           "simulate_point on the (3,6) N=1024 code (comp/comp_uni/omsq, 2.0-3.2 dB) "
           "and on dv6_dc32_n2048 (comp/min/omsq, 3.6 and 4.2 dB); ~95% in the decoders",
           (Code("dc6", ("generate_regular_code", (1024, 3, 6), {"seed": 1}),
                 (("comp", "comp"), ("comp_uni", "comp_uni"), ("omsq", "omsq")),
                 dict(snr=3.0, iterations=10, dc=6, dv=3, rate=0.5),
                 (2.0, 2.6, 3.2), 256),
            Code("dc32", ("bundled_code", ("dv6_dc32_n2048",), {}),
                 (("comp", "comp"), ("min", "comp"), ("omsq", "omsq")),
                 dict(snr=3.3, iterations=10),
                 (3.6, 4.2), 128))),
)}


# ---------------------------------------------------------------------------
# the decoder-design cache
# ---------------------------------------------------------------------------

def _artifact_file(workload, label):
    return f"{workload}-{label.replace('/', '_').replace(':', '-')}.json"


def build_dir(root, ql):
    """Cache directory keyed by the package source and the design configs."""
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "quantldpc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    for w in WORKLOADS.values():
        if isinstance(w, Decode):
            h.update(repr(w.design_configs(ql)).encode())
    return Path(root) / "perfbench" / "_build" / h.hexdigest()[:16]


def build(root, ql):
    """Design every decode workload's decoders into the cache."""
    cache = build_dir(root, ql)
    cache.mkdir(parents=True, exist_ok=True)
    for w in WORKLOADS.values():
        if not isinstance(w, Decode):
            continue
        for label, cfg in w.design_configs(ql):
            art, _ = ql.evolution.design_decoder(cfg)
            path = cache / _artifact_file(w.name, label)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(art.to_json() + "\n", encoding="ascii")
            os.replace(tmp, path)
    (cache / "done").write_text("ok\n", encoding="ascii")
    return cache
