"""The three benchmark workloads: inputs, one operation, and its known answer.

Each workload exposes

* ``generate(root, seed)`` -> one pass of inputs (built before the timed loop),
* ``run(inp)`` -> the operation's answer (the only code inside the timer),
* ``check(inp, answer)`` -> ``Checked`` (run between operations, untimed),
* ``key(inp)`` -> canonical text of an input, for the fingerprint and the
  repeated-input share,
* ``reproducer(inp)`` -> the ``rect4`` command line that repeats the input,
* ``screen(inputs)`` -> (inputs kept, known-defect answers): a workload may
  set aside the inputs that hit a known defect of the program (see
  ``HyperplaneMix.screen``); this runs outside the timer.

``run`` lets exceptions escape; the runner records them as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from dataclasses import dataclass

from rect4 import cli
from rect4.hyperplane import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_RECTIFIABLE,
    VERDICT_RECTIFIABLE,
    Hyperplane,
    analyze,
)
from rect4.plane_coordinates import vartest
from rect4.polynomials import FactorizationError
from rect4.verifier import verify_plane_pair

import inputs

FLAG_NAMES = ("ufd", "fibration", "regular")
# the message of the known defect names an extension field, e.g.
# "univariate factorization over F5[b]/(b^2+3) is not supported"
KNOWN_DEFECT = re.compile(r"univariate factorization over \S+\[\w+\]/\(.+\) is not supported")


@dataclass
class Checked:
    """Outcome of the known-answer check of one operation."""

    wrong: str | None = None  # why the answer disagrees, None when it agrees
    failed: bool = False  # a refusal (exit 3) on a well-formed domain input
    decided: bool = True  # a decided answer: not Inconclusive, not failed
    flags: tuple = ()  # the ufd/fibration/regular flag values reported
    digest: str = ""  # canonical text of the answer, compared across runs


def keep_all(pool):
    """``screen`` of a workload that meets no known defect: keep every input."""
    return pool, []


# ---------------------------------------------------------------------------
# corpus_cli: every corpus case through the command line
# ---------------------------------------------------------------------------


class CorpusCli:
    name = "corpus_cli"

    @staticmethod
    def generate(root, seed):
        return inputs.corpus_pass(inputs.read_corpus(root), inputs.seeded(seed, "corpus_cli"))

    @staticmethod
    def key(inp):
        return json.dumps(inp[0])

    screen = staticmethod(keep_all)

    @staticmethod
    def reproducer(inp):
        return "rect4 " + shlex.join(inp[0])

    @staticmethod
    def run(inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inp[0]))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check(inp, answer):
        argv, want = inp
        code, out, err = answer
        digest = f"{code}\n{out}"
        if code == 3 and want != 3:
            return Checked(failed=True, decided=False, digest=digest + err)
        if code != want:
            return Checked(wrong=f"exit {code}, expected {want}", digest=digest)
        if code == 3:
            return Checked(digest=digest)
        doc = json.loads(out)
        cmd = argv[0]
        if cmd == "analyze":
            if inputs.VERDICT_EXIT[doc["verdict"]] != code:
                return Checked(wrong=f"verdict {doc['verdict']} with exit {code}", digest=digest)
            flags = tuple(doc[k] for k in FLAG_NAMES) if doc["domain"] else ()
            return Checked(decided=doc["verdict"] != VERDICT_INCONCLUSIVE, flags=flags, digest=digest)
        if cmd == "gr-check":
            ok = doc["ok"] and doc["w_x"] == -1 and doc["w_y"] == doc["d"]
            return Checked(wrong=None if ok else "degree checks fail", digest=digest)
        ok = doc["verdict"] == "Accept" and set(doc["inverses"]) == {"X", "Y", "Z", "T"}
        return Checked(wrong=None if ok else "claim rejected", digest=digest)


# ---------------------------------------------------------------------------
# tame_round_trip: vartest a random tame coordinate and referee its certificate
# ---------------------------------------------------------------------------


class TameRoundTrip:
    name = "tame_round_trip"
    # of the 1200-coordinate field mix; generation is set-up time, paid three
    # times a run, and each further round adds about 3 s to every set-up
    rounds = 3

    @staticmethod
    def generate(root, seed):
        return inputs.tame_inputs(inputs.seeded(seed, "tame_round_trip"), TameRoundTrip.rounds)

    @staticmethod
    def key(inp):
        return f"{inp[0]}|{inp[1]}"

    screen = staticmethod(keep_all)

    @staticmethod
    def reproducer(inp):
        return f'rect4 vartest "{inp[1]}" "{inp[0]}" --cert-out cert.json && rect4 verify --cert cert.json'

    @staticmethod
    def run(inp):
        f = inp[1]
        r = vartest(f)
        if not r.accepted:
            return False, False, False, 0
        cert = r.certificate
        return (
            True,
            cert.image_of_variable("T") == f,
            verify_plane_pair(f, cert.complement),
            len(cert.steps),
        )

    @staticmethod
    def check(inp, answer):
        accepted, composite, referee, _ = answer
        digest = repr(answer)
        if not accepted:
            return Checked(wrong="vartest rejected a tame coordinate", digest=digest)
        if not composite:
            return Checked(wrong="certificate composite does not map T to f", digest=digest)
        if not referee:
            return Checked(wrong="verifier rejected the complement", digest=digest)
        return Checked(digest=digest)


# ---------------------------------------------------------------------------
# hyperplane_mix: analyze random and constructed hyperplanes
# ---------------------------------------------------------------------------


class HyperplaneMix:
    name = "hyperplane_mix"
    count = 4800  # more than twice the most a baseline run issued (2045)

    @staticmethod
    def generate(root, seed):
        return inputs.hyperplane_inputs(inputs.seeded(seed, "hyperplane_mix"), HyperplaneMix.count)

    @staticmethod
    def key(inp):
        label, a, F = inp[:3]
        return f"{label}|{a}|{F}"

    @staticmethod
    def reproducer(inp):
        label, a, F = inp[:3]
        return f'rect4 analyze "{a}" "{F}" {label}'

    @staticmethod
    def screen(pool):
        """Set aside the inputs that raise the known FactorizationError.

        At this version ``analyze`` raises "univariate factorization over
        K[g]/(g^2+c) is not supported" when a specialization at a root of an
        irreducible quadratic factor of a is univariate (ufd_check ->
        bivariate_irreducible -> univariate_factor).  Only such inputs are
        run here, once, and only those that still raise that error are set
        aside and reported; the rest, and all inputs once the defect is
        fixed, stay in the timed loop.
        """
        kept, defects = [], []
        for inp in pool:
            if inputs.univariate_at_quadratic_root(inp[2], inp[4]):
                try:
                    HyperplaneMix.run(inp)
                except FactorizationError as exc:
                    if KNOWN_DEFECT.fullmatch(str(exc)):
                        defects.append((inp, exc))
                        continue
            kept.append(inp)
        return kept, defects

    @staticmethod
    def run(inp):
        return analyze(Hyperplane(inp[1], inp[2]))

    @staticmethod
    def check(inp, rep):
        label, a, F, constructed, _ = inp
        doc = cli.analysis_to_json(rep, F.field, str(a), str(F))
        digest = json.dumps(doc, sort_keys=True)
        if not rep.domain:
            if constructed:
                return Checked(wrong="constructed input is not a domain", digest=digest)
            return Checked(digest=digest)
        flags = (rep.ufd, rep.fibration, rep.regular)
        wrong = _report_inconsistency(rep, F.field)
        if wrong is None and constructed and rep.verdict != VERDICT_RECTIFIABLE:
            wrong = f"constructed rectifiable input gave {rep.verdict}"
        if wrong is None:
            for i, root in enumerate(doc["roots"]):
                cert = root["coordinate"]["certificate"]
                if cert is not None:
                    ok, why = cli.replay_certificate(cert)
                    if not ok:
                        wrong = f"root {i} certificate does not replay: {why}"
                        break
        return Checked(
            wrong=wrong,
            decided=rep.verdict != VERDICT_INCONCLUSIVE,
            flags=flags,
            digest=digest,
        )


def _report_inconsistency(rep, field):
    """The cross-consistency invariants every analysis report must satisfy."""
    statuses = [c.status for c in rep.coordinates]
    if rep.verdict == VERDICT_RECTIFIABLE:
        if not all(s == "accept" for s in statuses):
            return "Rectifiable with a non-accepted coordinate"
        if rep.fibration != "true" or rep.ufd != "true":
            return "Rectifiable without positive fibration and ufd flags"
    elif rep.verdict == VERDICT_NOT_RECTIFIABLE:
        if all(s == "accept" for s in statuses):
            return "NotRectifiable with every coordinate accepted"
        if field.characteristic() > 0 and not (
            "chp2" in rep.theorem_path or "chp3" in rep.theorem_path
        ):
            return "NotRectifiable in characteristic p without chp2/chp3"
    for s, line, irr in zip(statuses, rep.lines, rep.irreducibility):
        if s == "accept" and (line != "line" or irr != "true"):
            return "accepted coordinate that is not an irreducible line"
    return None


WORKLOADS = {w.name: w for w in (CorpusCli, TameRoundTrip, HyperplaneMix)}
