"""The four workloads: seeded inputs, server flags, traffic and answer checks.

Why each exists (see README.md for the layer map):

* ``named-read`` — atomic subsumes/satisfiable on a 400-name EL
  TBox.  Every answer is a hierarchy lookup, so protocol, admission,
  the batch window and encoding do all the work.
* ``complex-read`` — complex concepts on the ~80-name non-Horn TBox of
  :mod:`corpus` under ``--ms-allowance``.  The tableau, budgets and
  reasoner caches do the work; the batcher's hierarchy fast path is
  bypassed.
* ``edit-mix`` — reads at a fixed rate while an edit stream swaps the
  TBox every 0.8 s over a sqlite instance store, with an edit log.
* ``pool-read`` — named-read's TBox and traffic behind ``--workers 2``,
  the only workload that runs the routing front and its workers.

The read-only workloads also post the served TBox back unchanged after
each of the five read windows of a segment, so each measures what an
idempotent edit costs on its TBox and topology.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import corpus
from loadgen import Sample, encode_request
from oracle import ComplexOracle, HierarchyOracle, InstanceOracle

from repro.dl import parse_tbox

#: first request id of edits, so reads and edits never share one
EDIT_RID = 10_000_000
#: the served corpus (TBox, instance store, edit chain) is the same in
#: every run, so runs with different seeds measure one system; ``--seed``
#: draws the read stream.  Seeded corpora and chains moved edit ack and
#: CPU per request by 15-30% between seeds (see README.md)
CORPUS_SEED = 0


@dataclass
class Request:
    kind: str  # subsumes | satisfiable | instances | edit
    args: tuple
    raw: bytes


def make_request(kind: str, rid: int, args: tuple) -> Request:
    """Encode one request; the body leads with the request id."""
    if kind == "subsumes":
        body = {"rid": rid, "general": args[0], "specific": args[1]}
    elif kind == "satisfiable":
        body = {"rid": rid, "concept": args[0]}
    elif kind == "instances":
        body = {"rid": rid, "concept": args[0], "limit": args[1]}
    else:
        body = {"rid": rid, "tbox": args[1]}
    return Request(kind, args, encode_request("POST", f"/v1/{_PATHS[kind]}", body))


_PATHS = {
    "subsumes": "subsumes",
    "satisfiable": "satisfiable",
    "instances": "instances",
    "edit": "tbox",
}


@dataclass
class Outcome:
    """Tallies of one pass's answers against the oracle."""

    ok: int = 0
    unknown: int = 0  # 206: the server's budget ran out
    errors: int = 0  # transport errors and other statuses
    wrong: int = 0
    unchecked: int = 0  # answers the oracle itself could not decide
    examples: list = field(default_factory=list)

    def add(self, verdict: str, detail: str = "") -> None:
        setattr(self, verdict, getattr(self, verdict) + 1)
        if verdict in ("wrong", "errors") and len(self.examples) < 5:
            self.examples.append(detail)


class Workload:
    name = ""
    closed_loop = True
    connections = 2
    warmup_s = 1.0
    #: read windows per segment; the write probe runs after each
    windows = 1
    #: write-probe edits after each read window
    probe_edits = 0
    extra_args: list[str] = []

    def __init__(self, seed: int, seconds: float, run_dir: Path, segments: int) -> None:
        self.seed = seed
        self.seconds = seconds
        #: seconds of traffic the request streams cover: the windows plus
        #: a warm-up per segment
        self.stream_s = seconds + segments * (self.warmup_s + 1)
        self.run_dir = run_dir
        self.tbox_path = run_dir / "served.tbox"
        self.tbox_text = ""
        self.reads: list[Request] = []
        self.edits: list[Request] = []
        self.boots = 0

    # -- inputs ----------------------------------------------------------- #

    def prepare(self) -> None:
        raise NotImplementedError

    def server_args(self) -> list[str]:
        return ["--tbox", str(self.tbox_path), *self.extra_args]

    def probe(self, version: int) -> list[Request]:
        """Post the served TBox back unchanged ``probe_edits`` times, from
        a server at ``version``."""
        return [
            make_request("edit", EDIT_RID + k, (version + 1 + k, self.tbox_text))
            for k in range(self.probe_edits)
        ]

    # -- checks ----------------------------------------------------------- #

    def check(self, pairs: list[tuple[Request, Sample]]) -> Outcome:
        outcome = Outcome()
        for request, sample in pairs:
            if sample.status == 206:
                outcome.add("unknown")
                continue
            if sample.status != 200:
                outcome.add("errors", f"{request.kind} {request.args[:2]} -> {sample.status}")
                continue
            body = json.loads(sample.body)
            verdict = self.judge(request, body)
            outcome.add(verdict, f"{request.kind} {request.args[:2]} -> {body}")
        return outcome

    def judge(self, request: Request, body: dict) -> str:
        if request.kind == "edit":
            expected = request.args[0]
            return "ok" if body.get("tbox_version") == expected else "wrong"
        version = body.get("tbox_version")
        if request.kind == "subsumes":
            truth = self.hierarchies.subsumes(version, *request.args)
        else:
            truth = self.hierarchies.satisfiable(version, request.args[0])
        if truth is None:
            return "unchecked"
        return "ok" if body.get("answer") is truth else "wrong"


def _named_reads(rng: random.Random, hierarchy, names: list[str], count: int) -> list[Request]:
    """80% subsumes (half on a known ancestor), 20% satisfiable."""
    out = []
    for rid in range(count):
        specific = rng.choice(names)
        if rng.random() < 0.8:
            ancestors = sorted(hierarchy.ancestors(specific) & set(names))
            if ancestors and rng.random() < 0.5:
                general = rng.choice(ancestors)
            else:
                general = rng.choice(names)
            out.append(make_request("subsumes", rid, (general, specific)))
        else:
            out.append(make_request("satisfiable", rid, (specific,)))
    return out


class NamedRead(Workload):
    name = "named-read"
    #: two probes after each of five windows: spread over the run, the
    #: probes sample the machine at 25 moments; bunched around one
    #: window per segment, back-to-back probes shared a contention burst.
    #: Probes cover about 10 s of a run: with one per window (5 s) their
    #: mean ack spread twice as much as CPU per request over ten runs
    windows, probe_edits = 5, 2
    #: a no-op swap costs about 140 ms at 400 names and 550 ms at 800
    defined, primitive = 300, 100
    rate_cap = 1000  # requests/s the pre-encoded sequence is sized for

    def prepare(self) -> None:
        self.tbox_text = corpus.el_tbox_text(
            CORPUS_SEED, defined=self.defined, primitive=self.primitive
        )
        self.tbox_path.write_text(self.tbox_text)
        # the probes' re-posts leave the TBox as it was
        probes = self.windows * self.probe_edits
        self.hierarchies = HierarchyOracle(
            {1 + k: self.tbox_text for k in range(probes + 1)}
        )
        hierarchy = self.hierarchies.hierarchies[1]
        names = sorted(parse_tbox(self.tbox_text).atomic_names())
        count = int(self.rate_cap * self.stream_s)
        self.reads = _named_reads(random.Random(self.seed), hierarchy, names, count)


class PoolRead(NamedRead):
    name = "pool-read"
    #: a probe costs about 0.5 s here, so one per window covers 12 s
    probe_edits = 1

    def server_args(self) -> list[str]:
        # worker sockets stay inside the checkout; a relative path keeps
        # them under the 108-byte limit of a Unix socket address
        self.boots += 1
        sockets = self.run_dir.relative_to(self.run_dir.parent.parent)
        return [
            "--tbox", str(self.tbox_path),
            "--workers", "2",
            "--worker-dir", str(sockets / f"workers{self.boots}"),
        ]


class ComplexRead(Workload):
    name = "complex-read"
    extra_args = ["--ms-allowance", "50"]
    #: one probe after each of five windows, as on named-read.  Probes
    #: right after boot split runs into a 20 ms and a 30 ms mode, and
    #: edits riding in the read stream (every 200th request) gave a
    #: dozen acks a run, whose mean spread by 0.16 over ten runs
    windows, probe_edits = 5, 1
    families, disjunctions = 9, 1
    repeat_share = 0.25
    #: every 20th request is an at-most query, cycling through a fixed
    #: pool: a third of them exhaust the budget, and drawing them at
    #: random moved CPU per request by 20% between seeds
    at_most_every, at_most_pool = 20, 40
    rate_cap = 1000
    #: the oracle's budget: 25x the server's node slice (250000 / 64)
    #: and 20x its deadline
    oracle_nodes, oracle_ms = 100_000, 1000.0

    def prepare(self) -> None:
        self.tbox_text = corpus.nonhorn_tbox_text(
            CORPUS_SEED, families=self.families, disjunctions=self.disjunctions
        )
        self.tbox_path.write_text(self.tbox_text)
        tbox = parse_tbox(self.tbox_text)
        rng = random.Random(self.seed)
        gen = corpus.ConceptGenerator(
            rng, sorted(tbox.atomic_names()), sorted(tbox.role_names())
        )
        at_most = self._at_most_pool(tbox)
        rng.shuffle(at_most)
        history: list[tuple[str, tuple]] = []
        count = int(self.rate_cap * self.stream_s)
        for rid in range(count):
            if rid % self.at_most_every == 0:
                kind, args = at_most[(rid // self.at_most_every) % len(at_most)]
            else:
                if history and rng.random() < self.repeat_share:
                    kind, args = rng.choice(history)
                else:
                    depth = rng.choice((1, 2))
                    if rng.random() < 0.5:
                        kind, args = "subsumes", (gen.concept(depth), gen.concept(depth))
                    else:
                        kind, args = "satisfiable", (gen.concept(depth),)
                history.append((kind, args))
            self.reads.append(make_request(kind, rid, args))
        self.oracle: Optional[ComplexOracle] = None  # built after the run
        self._decided: dict = {}

    def _at_most_pool(self, tbox) -> list[tuple[str, tuple]]:
        """Half satisfiability, half subsumption checks on ``A & B & <= n r.P``."""
        rng = random.Random(CORPUS_SEED)
        gen = corpus.ConceptGenerator(
            rng, sorted(tbox.atomic_names()), sorted(tbox.role_names())
        )
        pool = []
        for k in range(self.at_most_pool):
            if k % 2:
                pool.append(("satisfiable", (gen.at_most(),)))
            else:
                pool.append(("subsumes", (gen.atom(), gen.at_most())))
        return pool

    def judge(self, request: Request, body: dict) -> str:
        if request.kind == "edit":
            return super().judge(request, body)
        if self.oracle is None:
            self.oracle = ComplexOracle(
                self.tbox_text, max_nodes=self.oracle_nodes, max_ms=self.oracle_ms
            )
        key = (request.kind, request.args)
        if key not in self._decided:
            self._decided[key] = self.oracle.decide(request.kind, request.args)
        truth = self._decided[key]
        if truth is None:
            return "unchecked"
        return "ok" if body.get("answer") is truth else "wrong"


class EditMix(Workload):
    name = "edit-mix"
    closed_loop = False
    #: an edit (reclassify, swap, instdb refresh) costs about 50 ms here,
    #: so reads overlapping one stay well under a tenth of the stream and
    #: the gated p90 sits outside the stalls; at 120 names and 10^4
    #: individuals an edit took about 100 ms, an eighth of the period,
    #: and p90 crossed into the stalls in some runs and not in others
    defined, primitive = 60, 20
    individuals = 5_000
    read_rate = 100.0
    instances_share = 0.3
    edit_period_s = 0.8
    limit = 50

    def prepare(self) -> None:
        from repro.corpora.generators import random_individuals
        from repro.instdb.sqlite import SqliteBackend

        self.tbox_text = corpus.el_tbox_text(
            CORPUS_SEED, defined=self.defined, primitive=self.primitive
        )
        self.tbox_path.write_text(self.tbox_text)
        n_edits = int(self.seconds / self.edit_period_s) + 2
        chain = corpus.edit_chain(CORPUS_SEED, self.tbox_text, n_edits)
        versions = {1: self.tbox_text}
        versions.update({2 + k: text for k, text in enumerate(chain)})
        self.hierarchies = HierarchyOracle(versions)
        self.edits = [
            make_request("edit", EDIT_RID + k, (2 + k, text))
            for k, text in enumerate(chain)
        ]
        stable = set.intersection(
            *(set(h.group_of) for h in self.hierarchies.hierarchies.values())
        )
        tbox = parse_tbox(self.tbox_text)
        names = sorted(tbox.atomic_names() & stable)

        told, roles = [], []
        for individual, concept, edges in random_individuals(
            CORPUS_SEED,
            self.individuals,
            concepts=sorted(tbox.atomic_names()),
            roles=sorted(tbox.role_names()),
        ):
            told.append((individual, concept))
            roles.extend((individual, role, obj) for role, obj in edges)
        self.store_path = self.run_dir / "store.sqlite"
        backend = SqliteBackend(self.store_path)
        backend.bulk_assert(types=told, roles=roles)
        backend.close()
        self._instances = InstanceOracle(told, roles, self.hierarchies)

        rng = random.Random(self.seed)
        count = int(self.read_rate * self.stream_s)
        for rid in range(count):
            if rng.random() < self.instances_share:
                args = (rng.choice(names), self.limit)
                self.reads.append(make_request("instances", rid, args))
            else:
                args = (rng.choice(names), rng.choice(names))
                self.reads.append(make_request("subsumes", rid, args))

    def server_args(self) -> list[str]:
        """Each boot gets a fresh edit log and a fresh copy of the store."""
        self.boots += 1
        boot_dir = self.run_dir / f"boot{self.boots}"
        boot_dir.mkdir()
        store = boot_dir / "store.sqlite"
        shutil.copyfile(self.store_path, store)
        return [
            "--tbox", str(self.tbox_path),
            "--edit-log", str(boot_dir / "editlog"),
            "--abox-backend", "sqlite",
            "--abox-db", str(store),
        ]

    def check(self, pairs: list[tuple[Request, Sample]]) -> Outcome:
        wanted: dict[int, set] = {}
        for request, sample in pairs:
            if request.kind == "instances" and sample.status == 200:
                version = json.loads(sample.body)["materialized_version"]
                wanted.setdefault(version, set()).add(request.args)
        self._instance_answers = self._instances.answers(wanted)
        return super().check(pairs)

    def judge(self, request: Request, body: dict) -> str:
        if request.kind != "instances":
            return super().judge(request, body)
        key = (body.get("materialized_version"), *request.args)
        truth = self._instance_answers.get(key)
        if truth is None:
            return "unchecked"
        return "ok" if body.get("members") == truth else "wrong"


WORKLOADS = {
    cls.name: cls for cls in (NamedRead, ComplexRead, EditMix, PoolRead)
}
