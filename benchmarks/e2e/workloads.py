"""The in-process workloads: ``answer_warm``, ``compile_cold``, ``mutate_hybrid``.

Each drives ``Session`` / ``PreparedQuery`` from one closed-loop client
thread.  A workload is used in two places:

* the coordinator calls :meth:`Workload.prepare` once per run to build
  what the children share (the correctness oracle, as answer digests),
  before any clock starts and outside the measured processes;
* each child process calls :meth:`Workload.inputs` (untimed), then
  :meth:`Workload.setup` (timed as ``setup_s``), then runs
  :meth:`Workload.execute` over :meth:`Workload.op_stream` until its
  time share is spent, or for a fixed op count when it replays another
  child's run under tracing;
* after a child ends, the coordinator calls :meth:`Workload.check_log`
  on the log the child wrote (``mutate_hybrid`` logs its mutations and
  answer digests, and the oracle that follows them runs there).

Spans go around each call into a layer's public functions; their names
start with the layer (``lang``, ``api``, ``rewriting``, ``data``,
``analysis``, ``hybrid``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from pathlib import Path
from typing import Any, Iterator

from repro.api import EngineOptions, Session
from repro.api.session import HYBRID_CHASE_MAX_STEPS
from repro.chase.certain import certain_answers
from repro.chase.chase import restricted_chase
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.lang.atoms import Atom
from repro.lang.parser import parse_query
from repro.lang.terms import Constant, Variable
from repro.lang.tgd import TGD
from repro.workloads.ontologies import (
    university_data,
    university_ontology,
    university_queries,
)

POOL_PATH = Path(__file__).resolve().parent / "data" / "compile_pool.txt"

Rows = list[list[str]]


def encode(answers) -> Rows:
    """Answer tuples of constants as sorted JSON-able rows."""
    return sorted([term.value for term in row] for row in answers)


def digest(rows: Rows) -> list:
    """[row count, hash] of sorted rows.  Measured processes hold only
    these, so the oracle adds next to nothing to their memory."""
    text = json.dumps(rows, separators=(",", ":"))
    return [len(rows), hashlib.sha256(text.encode()).hexdigest()]


def chase_answers(rules, database: Database, queries: dict[str, str]) -> dict[str, Rows]:
    """Certain answers of each query read off one restricted chase."""
    chase = restricted_chase(
        list(rules), database, max_steps=HYBRID_CHASE_MAX_STEPS
    )
    if not chase.fixpoint:
        raise RuntimeError("oracle chase did not reach a fixpoint")
    return {
        key: encode(
            evaluate_ucq(parse_query(text), chase.instance, certain=True)
        )
        for key, text in queries.items()
    }


def named_queries() -> dict[str, str]:
    return {name: str(query) for name, query in university_queries()}


def mismatch(label: str, got: list, expected: list) -> str | None:
    """A failure message when two :func:`digest` values differ."""
    if got == expected:
        return None
    return f"{label}: {got[0]} answers, expected {expected[0]} (digests differ)"


def _rounds(rng: random.Random, items: list) -> Iterator:
    """Endless seeded rounds, each a shuffle of all *items*."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class Workload:
    """Base class: one closed-loop client thread over one session."""

    name = ""
    #: Ops between two :meth:`checkpoint` calls (None: only after set-up
    #: and at the end).
    check_every: int | None = None

    def __init__(self, seed: int, child: int, children: int, workdir: Path,
                 log: Path) -> None:
        self.seed = seed
        self.child = child
        self.children = children
        self.workdir = workdir
        self.log = log
        self.rng = random.Random(f"{self.name}/{seed}/{child}")
        self.session: Session | None = None
        # Benchmark-side tallies behind the per-layer ratios.
        self.tally: dict[str, int] = {}
        self._handles: set[int] = set()

    def count(self, key: str, value: int = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + value

    # -- coordinator side ----------------------------------------------

    @classmethod
    def prepare(cls, seed: int, workdir: Path) -> dict[str, Any]:
        """The shared context (oracles), computed once per run."""
        raise NotImplementedError

    @classmethod
    def check_log(cls, seed: int, log: Path, check) -> None:
        """Check what a child wrote to its log, if anything."""

    # -- child side ----------------------------------------------------

    def inputs(self, context: dict[str, Any]) -> None:
        """Generate the data and load the oracle (not timed)."""
        raise NotImplementedError

    def setup(self, tracer, check) -> None:
        """Boot the session, load backends, compile, warm (timed)."""
        raise NotImplementedError

    def op_stream(self) -> Iterator[Any]:
        raise NotImplementedError

    def before_op(self, op: Any) -> None:
        """Untimed work that must precede *op*."""

    def execute(self, op: Any, tracer) -> tuple[str, Any]:
        """Run one op (timed); return its kind and result."""
        raise NotImplementedError

    def verify(self, op: Any, result: Any) -> str | None:
        """A failure message for a wrong result, else None (untimed)."""
        return None

    def checkpoint(self, check) -> None:
        """Whole-state check after set-up, every :attr:`check_every`
        ops and at the end (untimed)."""

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    # -- shared steps --------------------------------------------------

    def prepare_query(self, session: Session, text: str, tracer, target=None):
        with tracer.span("lang.parse"):
            query = parse_query(text)
        with tracer.span("api.prepare"):
            prepared = session.prepare(query, target=target)
        self.count("prepares")
        if id(prepared) in self._handles:
            self.count("prepares_reused")
        else:
            self._handles.add(id(prepared))
        return prepared

    def answer(self, prepared, backend: str, path: str, tracer):
        with tracer.span(f"data.eval.{backend}_{path}"):
            answers = prepared.answer(backend=backend)
        self.count("rows_out", len(answers))
        return answers


# --------------------------------------------------------------------- #
# answer_warm                                                           #
# --------------------------------------------------------------------- #


class AnswerWarm(Workload):
    name = "answer_warm"
    SIZE = 2000
    TARGETS = ("ucq", "datalog")
    BACKENDS = ("memory", "sql")

    @classmethod
    def prepare(cls, seed, workdir):
        data = university_data(cls.SIZE, seed)
        answers = chase_answers(university_ontology(), data, named_queries())
        return {"oracle": {key: digest(rows) for key, rows in answers.items()}}

    def inputs(self, context):
        self.data = university_data(self.SIZE, self.seed)
        self.oracle = context["oracle"]
        self.handles = [
            (name, text, target, backend)
            for name, text in named_queries().items()
            for target in self.TARGETS
            for backend in self.BACKENDS
        ]

    def setup(self, tracer, check):
        self.session = session = Session(university_ontology(), self.data)
        with tracer.span("data.backend_load"):
            session.sql_backend()
        for name, text in named_queries().items():
            for target in self.TARGETS:
                prepared = self.prepare_query(session, text, tracer, target)
                with tracer.span("rewriting.compile"):
                    if target == "datalog":
                        prepared.datalog  # noqa: B018 - forces compilation
                    else:
                        prepared.result  # noqa: B018 - forces compilation
                with tracer.span("data.sql_compile"):
                    prepared.sql  # noqa: B018 - forces SQL generation
        # One warm pass builds the lazy evaluation indexes.
        for op in self.handles:
            _, answers = self.execute(op, tracer)
            check(self.verify(op, answers))

    def op_stream(self):
        # Every handle runs equally often; the seed sets the order.
        return _rounds(self.rng, self.handles)

    def execute(self, op, tracer):
        _, text, target, backend = op
        prepared = self.prepare_query(self.session, text, tracer, target)
        return "query", self.answer(prepared, backend, target, tracer)

    def verify(self, op, result):
        name, _, target, backend = op
        return mismatch(
            f"{name}/{target}/{backend}", digest(encode(result)), self.oracle[name]
        )


# --------------------------------------------------------------------- #
# compile_cold                                                          #
# --------------------------------------------------------------------- #

BLOWUP_DERIVERS = 3
BLOWUP_SIZES = (1, 2, 3, 4, 5)


def blowup_family(atoms: int) -> tuple[tuple[TGD, ...], str]:
    """``q(X) :- c1(X), ..., cn(X)`` where each ``ci`` has three
    alternative derivations ``ai_j(X) -> ci(X)``: ``4^n`` UCQ disjuncts
    against ``4n + 1`` Datalog rules."""
    x = Variable("X")
    rules = tuple(
        TGD([Atom(f"a{i}_{j}", (x,))], [Atom(f"c{i}", (x,))])
        for i in range(1, atoms + 1)
        for j in range(1, BLOWUP_DERIVERS + 1)
    )
    body = ", ".join(f"c{i}(X)" for i in range(1, atoms + 1))
    return rules, f"q(X) :- {body}"


def blowup_database(atoms: int) -> Database:
    """``u`` derives every atom, ``v`` stores them, ``w`` misses one."""
    facts = []
    for i in range(1, atoms + 1):
        facts.append(Atom(f"a{i}_1", (Constant("u"),)))
        facts.append(Atom(f"c{i}", (Constant("v"),)))
        if i < atoms:
            facts.append(Atom(f"a{i}_2", (Constant("w"),)))
    return Database(facts)


class CompileCold(Workload):
    name = "compile_cold"
    SIZE = 200
    SESSION_OPS = 200

    @classmethod
    def prepare(cls, seed, workdir):
        # The seed orders the whole pool: a run covers most of it, so
        # its cost profile does not depend on which queries a seed drew.
        selection = [
            line.split("\t", 1)[1] for line in POOL_PATH.read_text().splitlines()
        ]
        rng = random.Random(f"{cls.name}/{seed}")
        rng.shuffle(selection)
        ops = [["pool", text] for text in selection]
        for atoms in BLOWUP_SIZES:
            ops.insert(rng.randrange(len(ops) + 1), ["blowup", atoms])
        answers = chase_answers(
            university_ontology(),
            university_data(cls.SIZE, seed),
            {text: text for text in selection},
        )
        oracle = {key: digest(rows) for key, rows in answers.items()}
        for atoms in BLOWUP_SIZES:
            rules, text = blowup_family(atoms)
            blowup = certain_answers(parse_query(text), rules, blowup_database(atoms))
            oracle[f"blowup{atoms}"] = digest(encode(blowup))
        return {"ops": ops, "oracle": oracle}

    def inputs(self, context):
        self.data = university_data(self.SIZE, self.seed)
        self.oracle = context["oracle"]
        self.ops = [tuple(op) for op in context["ops"]]
        self.blowup = {atoms: blowup_family(atoms) for atoms in BLOWUP_SIZES}
        self.blowup_data = {atoms: blowup_database(atoms) for atoms in BLOWUP_SIZES}
        self.blowup_sessions: dict[int, Session] = {}
        self.session_index = 0

    def _open_sessions(self) -> None:
        """Fresh sessions over a fresh persistent cache directory."""
        self.close()
        cache_dir = self.workdir / f"cache-{self.child}-{self.session_index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.session = Session(
            university_ontology(), self.data, cache_dir=cache_dir
        )
        self.blowup_sessions = {
            atoms: Session(
                rules,
                self.blowup_data[atoms],
                cache_dir=cache_dir,
                options=EngineOptions(target="auto"),
            )
            for atoms, (rules, _) in self.blowup.items()
        }

    def setup(self, tracer, check):
        with tracer.span("api.open"):
            self._open_sessions()

    def op_stream(self):
        # Children start at different offsets, so together they cover
        # the pool.  Every SESSION_OPS ops the sessions reopen on a new
        # cache directory (see before_op): no session sees a query twice,
        # and peak memory does not grow with the number of ops a run
        # fits in.
        start = self.child * len(self.ops) // self.children
        rotated = self.ops[start:] + self.ops[:start]
        for number, op in enumerate(itertools.cycle(rotated)):
            yield number // self.SESSION_OPS, op

    def before_op(self, op):
        index, _ = op
        if index != self.session_index:
            self.session_index = index
            self._open_sessions()

    def execute(self, op, tracer):
        _, (kind, key) = op
        if kind == "pool":
            session, text = self.session, key
        else:
            session, text = self.blowup_sessions[key], self.blowup[key][1]
        prepared = self.prepare_query(session, text, tracer)
        with tracer.span("rewriting.compile"):
            target = prepared.target_selected
            if target == "datalog":
                compiled = prepared.datalog
            else:
                compiled = prepared.result
                self.count("disjuncts_out", compiled.size)
        if not compiled.complete:
            self.count("incomplete")
        answers = self.answer(prepared, "memory", target, tracer)
        return "query", answers

    def verify(self, op, result):
        _, (kind, key) = op
        label = key if kind == "pool" else f"blowup{key}"
        return mismatch(label, digest(encode(result)), self.oracle[label])

    def close(self):
        for session in [self.session, *self.blowup_sessions.values()]:
            if session is not None:
                session.close()


# --------------------------------------------------------------------- #
# mutate_hybrid                                                         #
# --------------------------------------------------------------------- #


class MutateHybrid(Workload):
    name = "mutate_hybrid"
    SIZE = 2000
    #: One block of ops, shuffled per block: 6 queries, 3 inserts, 1 delete.
    BLOCK = ("query",) * 6 + ("insert",) * 3 + ("delete",)
    check_every = 100
    BACKENDS = ("memory", "sql")
    DELETABLE = ("teaches", "worksFor", "hasAdvisor", "takes", "gradStudent")

    @classmethod
    def prepare(cls, seed, workdir):
        # The oracle follows the mutations: check_log replays them.
        return {}

    @classmethod
    def check_log(cls, seed, log, check):
        """Replay a child's logged mutations on a hybrid-off session over
        the benchmark's own copy of the data, and compare its answers
        with the digests the child logged at each checkpoint."""
        mirror = university_data(cls.SIZE, seed)
        oracle = Session(university_ontology(), mirror)
        try:
            queries = list(named_queries().values())
            handles = [oracle.prepare(text) for text in queries]
            with log.open() as lines:
                for line in lines:
                    entry = json.loads(line)
                    if "check" not in entry:
                        for relation, values in entry["facts"]:
                            fact = Atom(relation, tuple(Constant(v) for v in values))
                            if entry["kind"] == "delete":
                                mirror.discard(fact)
                            else:
                                mirror.add(fact)
                        continue
                    for text, handle, got in zip(queries, handles, entry["check"]):
                        expected = digest(encode(handle.answer()))
                        for backend, value in zip(cls.BACKENDS, got):
                            check(mismatch(f"{text} [{backend}]", value, expected))
        finally:
            oracle.close()

    def inputs(self, context):
        self.rules = university_ontology()
        self.data = university_data(self.SIZE, self.seed)
        self.queries = list(named_queries().values())
        # Candidates for deletion, in a process-independent order.  They
        # cover every relation an insert writes, so they are also the
        # benchmark's record of which of those facts the data holds.
        self.deletable = sorted(
            (fact for fact in self.data.facts() if fact.relation in self.DELETABLE),
            key=str,
        )
        self.deletable_index = {fact: i for i, fact in enumerate(self.deletable)}
        self.fresh = 0
        self._log = self.log.open("w")

    def setup(self, tracer, check):
        self.session = session = Session(
            self.rules, self.data, options=EngineOptions(hybrid="materialize")
        )
        with tracer.span("analysis.analyze"):
            session.analyze()
        with tracer.span("hybrid.build"):
            session.hybrid_decision()
        for index in range(len(self.queries)):
            self.execute(("query", index, "memory"), tracer)
        # The first SQL answer loads the hybrid SQL mirror of the core.
        with tracer.span("data.backend_load"):
            self.execute(("query", 0, "sql"), tracer)
        for index in range(1, len(self.queries)):
            self.execute(("query", index, "sql"), tracer)

    # -- the mutation tape ---------------------------------------------

    def _constant(self, kind: str) -> Constant:
        size = self.SIZE
        low, high = {
            "professor": (0, size // 2),
            "grad": (size // 2, (3 * size) // 4),
            "course": (0, size // 2),
            "dept": (0, size // 5),
        }[kind]
        prefix = {"course": "course", "dept": "dept"}.get(kind, "person")
        return Constant(f"{prefix}{self.rng.randrange(low, high)}")

    def _new_fact(self) -> Atom:
        kind = self.rng.randrange(5)
        if kind == 0:
            return Atom("teaches", (self._constant("professor"), self._constant("course")))
        if kind == 1:
            return Atom("worksFor", (self._constant("professor"), self._constant("dept")))
        if kind == 2:
            return Atom("hasAdvisor", (self._constant("grad"), self._constant("professor")))
        self.fresh += 1
        student = Constant(f"fresh{self.child}_{self.fresh}")
        if kind == 3:
            return Atom("gradStudent", (student,))
        return Atom("takes", (student, self._constant("course")))

    def _track(self, facts: list[Atom], delete: bool) -> None:
        for fact in facts:
            if delete:
                self.count("facts_changed")
                self._forget(fact)
            elif fact not in self.deletable_index:
                self.count("facts_changed")
                self.deletable_index[fact] = len(self.deletable)
                self.deletable.append(fact)

    def _forget(self, fact: Atom) -> None:
        index = self.deletable_index.pop(fact)
        last = self.deletable.pop()
        if index < len(self.deletable):
            self.deletable[index] = last
            self.deletable_index[last] = index

    def op_stream(self):
        # Queries come in seeded rounds over every (query, backend) pair.
        pairs = [
            (index, backend)
            for index in range(len(self.queries))
            for backend in self.BACKENDS
        ]
        queries = _rounds(self.rng, pairs)
        while True:
            block = list(self.BLOCK)
            self.rng.shuffle(block)
            for kind in block:
                if kind == "query":
                    yield (kind, *next(queries))
                    continue
                size = self.rng.randint(1, 16)
                if kind == "insert":
                    facts = [self._new_fact() for _ in range(size)]
                else:
                    facts = [
                        self.deletable[i]
                        for i in self.rng.sample(range(len(self.deletable)), size)
                    ]
                self._track(facts, delete=kind == "delete")
                yield kind, facts, None

    def before_op(self, op):
        kind, facts, _ = op
        if kind != "query":
            entry = {
                "kind": kind,
                "facts": [[f.relation, [t.value for t in f.terms]] for f in facts],
            }
            self._log.write(json.dumps(entry) + "\n")

    def execute(self, op, tracer):
        kind, payload, backend = op
        if kind == "query":
            prepared = self.prepare_query(self.session, self.queries[payload], tracer)
            return "query", self.answer(prepared, backend, "ucq", tracer)
        with tracer.span(f"hybrid.{kind}"):
            if kind == "insert":
                result = self.session.insert(payload)
            else:
                result = self.session.delete(payload)
        return "mutate", result

    def verify(self, op, result):
        if op[0] != "query" and result is None:
            return f"{op[0]}: no materialized core was maintained"
        return None

    def checkpoint(self, check):
        # Checked by check_log, after this process has ended.
        answers = [
            [
                digest(encode(self.session.prepare(text).answer(backend=backend)))
                for backend in self.BACKENDS
            ]
            for text in self.queries
        ]
        self._log.write(json.dumps({"check": answers}) + "\n")

    def close(self):
        super().close()
        self._log.close()


IN_PROCESS = {cls.name: cls for cls in (AnswerWarm, CompileCold, MutateHybrid)}
