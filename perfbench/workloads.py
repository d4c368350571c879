"""The benchmark's three workloads: inputs, golden oracles, set-up and the
operations of one pass.

Every workload is a closed loop: one client in one process issues one call
at a time through a default ``Engine()``.  A *pass* is a fixed sequence of
operations over inputs made from the seed; the harness repeats passes, so
each pass sees the same inputs and the same store state.  Every operation
carries its expected output, computed by a golden oracle when the workload
is built -- outside every timed region and outside set-up.

Operation kinds (the end-to-end metric each one feeds):

* ``call``      -- one query call: ``Engine.evaluate`` on one document, or
  ``evaluate_many`` / ``is_nonempty_many`` over the store
  (``call_p50_ms``, ``letters_per_s``, ``mappings_per_s``);
* ``enumerate`` -- ``Engine.enumerate`` drained (``ttfm_p50_ms``,
  ``delay_*``);
* ``append``    -- one ``TailSession.reevaluate`` of a small append
  (``append_*``);
* ``tail-open``, ``ingest``, ``retire`` -- session (re)start after a
  rotation, ``CorpusStore.add_many`` of a batch, and removing the batch's
  new documents again, which keeps every pass on the same store.

Sizes are module constants so that ``BENCHMARK.json`` can state them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from repro import (
    CorpusStore,
    Difference,
    Document,
    Engine,
    Instantiation,
    Join,
    Leaf,
    PlannerConfig,
    Project,
    RAQuery,
    compile_spanner,
    regex_to_va,
    trim,
)
from repro.algebra import semantic_difference, semantic_join, semantic_projection
from repro.regex.builder import capture, char_range, chars, concat, eps, lit, plus, star, union
from repro.workloads import students
from repro.workloads.packs import csv_records as csv
from repro.workloads.packs import server_logs as logs
from repro.workloads.regexes import TEXT_ALPHABET

from layers import TracedTail

# -- sizes ------------------------------------------------------------------

#: logs-monitor: archive documents, their line counts and ERROR lines
#: (both cycled; ERROR lines are evenly spaced).  One archive document in
#: DISK_SHARE comes from a host with a disk monitor and has LOG_DISK_LINES
#: disk-usage lines; the rest have none.
LOG_ARCHIVE_DOCS = 80
LOG_LINES = (16, 24, 32, 40)
LOG_ERRORS = (0, 1, 2)
DISK_SHARE = 4
LOG_DISK_LINES = 2
#: Per pass: an ingest batch of LOG_BATCH_NEW new documents plus
#: LOG_BATCH_DUPS re-shipped archive documents; the four store calls;
#: LOG_DRILLDOWNS flagged documents enumerated line by line; one tail
#: cycle: a LOG_TAIL_LINES-line log with LOG_TAIL_ERRORS ERROR lines, then
#: LOG_APPENDS appends of LOG_APPEND_LINES lines, one of them an ERROR
#: line in the middle append.
LOG_BATCH_NEW = 6
LOG_BATCH_DUPS = 2
LOG_DRILLDOWNS = 6
LOG_TAIL_LINES = 120
LOG_TAIL_ERRORS = 3
LOG_APPENDS = 6
LOG_APPEND_LINES = 3

#: records-scrape: records per CSV export (log-spaced), audit-note share,
#: and the live export's tail cycle.
CSV_RECORDS = (12, 15, 19, 24, 30, 38, 48, 60, 76, 96)
CSV_NOISE_RATE = 0.05
CSV_TAIL_RECORDS = 8
CSV_APPENDS = 12
CSV_APPEND_RECORDS = 2

#: ra-students: students per roster and the live roster's tail cycle (one
#: student line per append).  Which lines carry a first name, a phone, a
#: recommendation and a UK mail follows the line's index (7 and 9 in 10,
#: 1 in 7, 2 in 5), so every seed has the same mix; names, numbers and
#: mail names are random.
ROSTER_LINES = (6, 8, 10, 12, 15, 18, 22, 26, 32)
ROSTER_TAIL_LINES = 2
ROSTER_APPENDS = 16


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _compile(formula, tracer):
    with _span(tracer, "va.compile"):
        return trim(regex_to_va(formula))


def _prepare(engine, query, tracer):
    """``Engine.prepare`` plus, for fully static plans, the backend's
    prepare of the static automaton -- the query is then ready."""
    with _span(tracer, "plan.prepare"):
        context = engine.prepare(query)
    if context.plan.is_fully_static:
        with _span(tracer, "backend.prepare"):
            context.prepared_for(Document(""))
    return context


# -- canonical forms -----------------------------------------------------------


def _texts(mapping, text, variables):
    return tuple(
        text[mapping[var].begin - 1 : mapping[var].end - 1] for var in variables
    )


def _canon(mappings, text, variables) -> Counter:
    """The multiset of captured substrings -- what the string oracles
    compute."""
    return Counter(_texts(m, text, variables) for m in mappings)


class Op:
    """One operation of a pass.

    ``e2e()`` runs it through the engine's entry point; ``decomposed(layers)``
    through :class:`~layers.Layers`; ``check(output)`` compares an output
    with the oracle.  ``enumerate`` operations also expose ``engine``,
    ``query`` and ``source`` (the document) so the harness can time each
    mapping as it arrives.
    """

    __slots__ = (
        "kind", "label", "letters", "e2e", "decomposed", "check",
        "engine", "query", "source",
    )

    def __init__(self, kind, label, letters, e2e, decomposed, check,
                 engine=None, query=None, source=None):
        self.kind = kind
        self.label = label
        self.letters = letters
        self.e2e = e2e
        #: ``None`` for a store mutation, which is one call into one
        #: layer: the traced run then spans ``e2e()`` itself (named by
        #: ``label``) instead of running it twice.
        self.decomposed = decomposed
        self.check = check
        self.engine = engine
        self.query = query
        self.source = source


def _enumerate_op(label, engine, query, source, letters, check):
    return Op(
        "enumerate", label, letters,
        lambda: list(engine.enumerate(query, source())),
        lambda layers: layers.mappings(query, source()),
        check, engine=engine, query=query, source=source,
    )


def _tail_ops(label, engine, query, initial, appends, expected, canon):
    """A tail cycle: restart the session on ``initial`` (a rotation), then
    one ``append`` operation per appended chunk.  ``expected[0]`` is the
    oracle of the initial document, ``expected[k]`` that of the k-th
    append's fresh mappings."""
    session = engine.tail(query)
    mirror = {}

    def traced(layers):
        if mirror.get("layers") is not layers:
            mirror["layers"] = layers
            mirror["session"] = TracedTail(layers, query)
        return mirror["session"]

    def open_e2e():
        session.reset(initial)
        return session.reevaluate()

    def open_traced(layers):
        t = traced(layers)
        t.reset(initial)
        return t.reevaluate()

    def checker(index):
        def check(output):
            text = initial + "".join(appends[:index])
            return canon(output, text) == expected[index]
        return check

    ops = [Op("tail-open", f"{label}/open", len(initial), open_e2e, open_traced, checker(0))]
    for index, chunk in enumerate(appends, start=1):
        ops.append(Op(
            "append", f"{label}/append", len(chunk),
            lambda chunk=chunk: session.reevaluate(chunk),
            lambda layers, chunk=chunk: traced(layers).reevaluate(chunk),
            checker(index),
        ))
    return ops


def _tail_expected(initial, appends, oracle) -> list:
    """Per tail step, the mappings (a multiset or a set, as ``oracle``
    returns) new at that step."""
    out = [oracle(initial)]
    text = initial
    for chunk in appends:
        before = oracle(text)
        text += chunk
        out.append(oracle(text) - before)
    return out


# -- logs-monitor ----------------------------------------------------------------


def disk_formula():
    """WARN-level disk-usage lines: the usage percentage and the volume.
    Only disk-usage lines contain the letter ``v`` (``/data/vol``), so the
    letter index prunes every document from a host without a disk monitor."""
    digit = char_range("0", "9")
    skip = star(chars(TEXT_ALPHABET))
    return concat(
        skip, lit(" WARN disk usage "), capture("pct", plus(digit)),
        lit(" percent on /data/vol"), capture("vol", plus(digit)), lit("\n"), skip,
    )


def line_formula():
    """Every line of a log with its three fields -- the drill-down query
    (one mapping per line; :func:`logs.golden_fields` is its oracle)."""
    digit = char_range("0", "9")
    two = concat(digit, digit)
    skip = star(chars(TEXT_ALPHABET))
    level = union(*(lit(name) for name in logs.LEVELS))
    return concat(
        union(eps(), concat(skip, lit("\n"))),
        capture("ts", concat(two, lit(":"), two, lit(":"), two)),
        lit(" "), capture("level", level), lit(" "),
        capture("msg", star(chars(TEXT_ALPHABET - {"\n"}))),
        lit("\n"), skip,
    )


#: The error query in the CLI's textual syntax (``.`` over TEXT_ALPHABET).
CLI_ERROR_FORMULA = ".*ts{[0-9][0-9]:[0-9][0-9]:[0-9][0-9]} ERROR .*"
CLI_ALPHABET = "".join(sorted(TEXT_ALPHABET))


def oracle_errors(text) -> Counter:
    return Counter((ts,) for ts in logs.golden_error_timestamps(text))


def oracle_disk(text) -> Counter:
    out = Counter()
    for line in text.split("\n"):
        fields = logs.golden_fields(line)
        if fields is None or fields["level"] != "WARN":
            continue
        words = fields["msg"].split(" ")
        if words[:2] == ["disk", "usage"] and words[3:5] == ["percent", "on"]:
            out[(words[2], words[5][len("/data/vol"):])] += 1
    return out


def oracle_lines(text) -> Counter:
    out = Counter()
    for line in text.split("\n")[:-1]:
        fields = logs.golden_fields(line)
        if fields is not None:
            out[(fields["ts"], fields["level"], fields["msg"])] += 1
    return out


def _set_errors(lines, count) -> list:
    """Make ``count`` evenly spaced lines ERROR lines (the pack's lines are
    generated without any)."""
    positions = {(k + 1) * len(lines) // (count + 1) for k in range(count)}
    out = []
    for index, line in enumerate(lines):
        if index in positions:
            timestamp, _level, message = line.split(" ", 2)
            line = f"{timestamp} ERROR {message}"
        out.append(line)
    return out


def _log_lines(rng, lines, start_second=None) -> list:
    return logs.generate_lines(
        lines, seed=rng.randrange(1 << 30), error_rate=0.0,
        start_second=rng.randrange(86400) if start_second is None else start_second,
    )


def _joined(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _log_doc(rng, index) -> str:
    """Archive document ``index``: a host with a disk monitor logs exactly
    LOG_DISK_LINES disk-usage lines (redrawn until it has as many; later
    ones dropped), any other host none."""
    wanted = LOG_DISK_LINES if index % DISK_SHARE == 0 else 0
    while True:
        lines = _log_lines(rng, LOG_LINES[index % len(LOG_LINES)])
        disk = [i for i, line in enumerate(lines) if "/data/vol" in line]
        if len(disk) >= wanted:
            kept = [line for i, line in enumerate(lines) if i not in disk[wanted:]]
            return _joined(_set_errors(kept, LOG_ERRORS[index % len(LOG_ERRORS)]))


def setup_logs(inputs, workdir, tracer=None):
    """Open the store, ingest the archive, build the engine and prepare
    every query."""
    with _span(tracer, "store.open"):
        store = CorpusStore(Path(workdir) / "corpus.sqlite")
    with _span(tracer, "store.add"):
        archive_ids = store.add_many(inputs["archive"])
    engine = Engine()
    queries = {
        "errors": _compile(logs.error_timestamp_formula(), tracer),
        "disk": _compile(disk_formula(), tracer),
        "lines": _compile(line_formula(), tracer),
    }
    for query in queries.values():
        _prepare(engine, query, tracer)
    return {"store": store, "engine": engine, "queries": queries, "archive_ids": archive_ids}


class LogsMonitor:
    name = "logs-monitor"

    def __init__(self, seed):
        rng = random.Random(f"logs-monitor/{seed}")
        docs = [_log_doc(rng, i) for i in range(LOG_ARCHIVE_DOCS + LOG_BATCH_NEW)]
        self.archive = docs[:LOG_ARCHIVE_DOCS]
        reshipped = rng.sample(range(LOG_ARCHIVE_DOCS), LOG_BATCH_DUPS)
        self.batch = docs[LOG_ARCHIVE_DOCS:] + [self.archive[i] for i in reshipped]
        if len(set(docs)) != len(docs):
            raise ValueError("generated log documents collide; pick another seed")
        self.tail_initial = _joined(_set_errors(_log_lines(rng, LOG_TAIL_LINES, 0), LOG_TAIL_ERRORS))
        self.tail_appends = [
            _joined(_set_errors(
                _log_lines(rng, LOG_APPEND_LINES, 3 * (LOG_TAIL_LINES + k * LOG_APPEND_LINES)),
                int(k == LOG_APPENDS // 2),
            ))
            for k in range(LOG_APPENDS)
        ]
        # Golden outputs, per distinct document text.
        self.expected = {
            text: {"errors": oracle_errors(text), "disk": oracle_disk(text)}
            for text in docs
        }
        flagged = [text for text in self.archive if self.expected[text]["errors"]]
        self.drilldown = flagged[:LOG_DRILLDOWNS]
        self.expected_lines = {text: oracle_lines(text) for text in self.drilldown}
        self.expected_tail = _tail_expected(self.tail_initial, self.tail_appends, oracle_errors)
        self.letters = sum(len(text) for text in docs)

    def inputs(self):
        return {"archive": self.archive}

    def setup(self, workdir, tracer=None):
        return setup_logs(self.inputs(), workdir, tracer)

    def describe(self) -> str:
        return (
            f"{LOG_ARCHIVE_DOCS} archive documents + {LOG_BATCH_NEW} per batch, "
            f"{self.letters} letters in the store during reads"
        )

    def ops(self, state) -> list:
        store, engine, queries = state["store"], state["engine"], state["queries"]
        text_of = dict(zip(state["archive_ids"], self.archive))
        new_ids: list = []
        expected = self.expected
        letters = self.letters

        def ingest():
            ids = store.add_many(self.batch)
            new_ids[:] = ids[:LOG_BATCH_NEW]
            text_of.update(zip(ids, self.batch))
            return ids

        def check_ingest(ids):
            return len(set(ids)) == LOG_BATCH_NEW + LOG_BATCH_DUPS and all(
                store.text(i) == text for i, text in zip(ids, self.batch)
            )

        def retire():
            for doc_id in new_ids:
                store.remove(doc_id)
            return len(store)

        variables = {"errors": ("ts",), "disk": ("pct", "vol")}

        def check_relations(name):
            def check(relations):
                ids = store.doc_ids()
                return len(ids) == len(relations) and all(
                    _canon(rel, text_of[i], variables[name]) == expected[text_of[i]][name]
                    for i, rel in zip(ids, relations)
                )
            return check

        def check_answers(name):
            def check(answers):
                ids = store.doc_ids()
                return len(ids) == len(answers) and all(
                    bool(answer) == bool(expected[text_of[i]][name])
                    for i, answer in zip(ids, answers)
                )
            return check

        ops = [
            Op("ingest", "store.add", sum(map(len, self.batch)), ingest, None, check_ingest),
        ]
        for name in ("errors", "disk"):
            query = queries[name]
            ops.append(Op(
                "call", f"evaluate_many/{name}", letters,
                lambda q=query: engine.evaluate_many(q, store),
                lambda layers, q=query: layers.evaluate_many(q, store),
                check_relations(name),
            ))
            ops.append(Op(
                "call", f"is_nonempty_many/{name}", letters,
                lambda q=query: engine.is_nonempty_many(q, store),
                lambda layers, q=query: layers.is_nonempty_many(q, store),
                check_answers(name),
            ))
        by_text = {text: doc_id for doc_id, text in text_of.items()}
        for text in self.drilldown:
            doc_id = by_text[text]
            ops.append(_enumerate_op(
                "enumerate/lines", engine, queries["lines"],
                lambda doc_id=doc_id: store.document(doc_id), len(text),
                lambda out, text=text: _canon(out, text, ("ts", "level", "msg"))
                == self.expected_lines[text],
            ))
        ops += _tail_ops(
            "tail/errors", engine, queries["errors"], self.tail_initial,
            self.tail_appends, self.expected_tail,
            lambda out, text: _canon(out, text, ("ts",)),
        )
        ops.append(Op(
            "retire", "store.remove", 0, retire, None,
            lambda size: size == LOG_ARCHIVE_DOCS,
        ))
        return ops

    def cli_op(self, state) -> Op:
        """One ``repro corpus query`` of the error query against the store
        (at its archive state), as a fresh subprocess."""
        text_of = dict(zip(state["archive_ids"], self.archive))
        command = [
            sys.executable, "-m", "repro.cli", "corpus", "query", CLI_ERROR_FORMULA,
            "--alphabet", CLI_ALPHABET, "--store", str(state["store"].path), "--json",
        ]
        env = dict(os.environ, PYTHONPATH="src")

        def run():
            return subprocess.run(
                command, env=env, capture_output=True, text=True, timeout=120, check=True
            ).stdout

        def check(stdout):
            from repro.io.serialize import relation_from_dict

            found = {}
            for line in stdout.splitlines():
                row = json.loads(line)
                text = text_of[row["doc_id"]]
                found[text] = _canon(relation_from_dict(row["relation"]), text, ("ts",))
            wanted = {t: self.expected[t]["errors"] for t in self.archive if self.expected[t]["errors"]}
            return found == wanted

        return Op("cli", "repro corpus query", self.letters, run, None, check)


# -- records-scrape ----------------------------------------------------------------


def setup_records(inputs, workdir, tracer=None):
    engine = Engine()
    queries = {
        "record": _compile(csv.record_formula(), tracer),
        "field": _compile(csv.field_formula(), tracer),
    }
    for query in queries.values():
        _prepare(engine, query, tracer)
    return {"engine": engine, "queries": queries}


def oracle_records(text) -> Counter:
    return Counter(
        (r["id"], r["email"], r["city"], r["amount"]) for r in csv.golden_records(text)
    )


def oracle_fields(text) -> Counter:
    return Counter((field,) for field in csv.golden_interior_fields(text))


RECORD_VARS = ("id", "email", "city", "amount")


class RecordsScrape:
    name = "records-scrape"

    def __init__(self, seed):
        rng = random.Random(f"records-scrape/{seed}")
        self.exports = [
            csv.generate_csv(n, seed=rng.randrange(1 << 30), noise_rate=CSV_NOISE_RATE)
            for n in CSV_RECORDS
        ]
        live = csv.generate_records(
            CSV_TAIL_RECORDS + CSV_APPENDS * CSV_APPEND_RECORDS,
            seed=rng.randrange(1 << 30), noise_rate=CSV_NOISE_RATE,
        )
        self.tail_initial = "".join(
            line + "\n" for line in [csv.HEADER, *live[:CSV_TAIL_RECORDS]]
        )
        rest = live[CSV_TAIL_RECORDS:]
        self.tail_appends = [
            "".join(line + "\n" for line in rest[i : i + CSV_APPEND_RECORDS])
            for i in range(0, len(rest), CSV_APPEND_RECORDS)
        ]
        self.expected = [
            {"record": oracle_records(text), "field": oracle_fields(text)}
            for text in self.exports
        ]
        self.expected_tail = _tail_expected(self.tail_initial, self.tail_appends, oracle_records)
        self.letters = sum(map(len, self.exports))
        self.mappings = sum(
            sum(e["record"].values()) + sum(e["field"].values()) for e in self.expected
        )

    def inputs(self):
        return {}

    def setup(self, workdir, tracer=None):
        return setup_records(self.inputs(), workdir, tracer)

    def describe(self) -> str:
        return (
            f"{len(self.exports)} exports of {CSV_RECORDS[0]}-{CSV_RECORDS[-1]} records, "
            f"{self.letters} letters, {self.mappings} mappings per query sweep"
        )

    def ops(self, state) -> list:
        engine, queries = state["engine"], state["queries"]
        variables = {"record": RECORD_VARS, "field": ("field",)}
        ops = []
        for text, expected in zip(self.exports, self.expected):
            for name in ("record", "field"):
                query = queries[name]
                check = (
                    lambda out, text=text, name=name, expected=expected:
                    _canon(out, text, variables[name]) == expected[name]
                )
                ops.append(Op(
                    "call", f"evaluate/{name}", len(text),
                    lambda q=query, text=text: engine.evaluate(q, text),
                    lambda layers, q=query, text=text: layers.evaluate(q, text),
                    check,
                ))
                ops.append(_enumerate_op(
                    f"enumerate/{name}", engine, query, lambda text=text: text,
                    len(text), check,
                ))
        ops += _tail_ops(
            "tail/records", engine, queries["record"], self.tail_initial,
            self.tail_appends, self.expected_tail,
            lambda out, text: _canon(out, text, RECORD_VARS),
        )
        return ops


# -- ra-students -----------------------------------------------------------------


def _figure2(atoms, engine):
    """π_xstdnt((αsm ⋈ αsp) \\ αnr) -- Figure 2 / Example 5.1."""
    return RAQuery(
        Project(Difference(Join(Leaf("sm"), Leaf("sp")), Leaf("nr")), "keep"),
        Instantiation(
            spanners={"sm": atoms["sm"], "sp": atoms["sp"], "nr": atoms["nr"]},
            projections={"keep": frozenset({"xstdnt"})},
        ),
        PlannerConfig(max_shared=2),
        engine=engine,
    )


def _example24(atoms, engine):
    """αinfo \\ αUKm -- Example 2.4."""
    return RAQuery(
        Difference(Leaf("info"), Leaf("uk")),
        Instantiation(spanners={"info": atoms["info"], "uk": atoms["uk"]}),
        engine=engine,
    )


def _student_atoms():
    return {
        "sm": students.alpha_student_mail(),
        "sp": students.alpha_student_phone(),
        "nr": students.alpha_recommendation(),
        "info": students.alpha_info(),
        "uk": students.alpha_uk_mail(),
    }


def setup_students(inputs, workdir, tracer=None):
    engine = Engine()
    atoms = {name: _compile(f, tracer) for name, f in _student_atoms().items()}
    queries = {"figure2": _figure2(atoms, engine), "example24": _example24(atoms, engine)}
    for query in queries.values():
        _prepare(engine, query, tracer)
    return {"engine": engine, "queries": queries}


def oracle_students(spanners, text) -> dict:
    """Both queries by the relational semantics over each atom's relation
    (each atom evaluated on its own, without the algebra's compilation)."""
    rel = {name: spanner.evaluate(text) for name, spanner in spanners.items()}
    figure2 = semantic_projection(
        semantic_difference(semantic_join(rel["sm"], rel["sp"]), rel["nr"]), {"xstdnt"}
    )
    return {"figure2": frozenset(figure2), "example24": frozenset(semantic_difference(rel["info"], rel["uk"]))}


def _roster_lines(rng, n) -> list:
    """``n`` student lines from ``generate_students``, the j-th with the
    attribute mix fixed by j (redrawn until its mail is or is not a UK
    mail, as j asks)."""
    lines = []
    for j in range(n):
        while True:
            line = students.generate_students(
                1, rng,
                with_first_name=float(j % 10 not in (2, 5, 8)),
                with_phone=float(j % 10 != 4),
                with_recommendation=float(j % 7 == 3),
            ).text
            if (".uk" in line) == (j % 5 in (1, 3)):
                break
        lines.append(line)
    return lines


class RaStudents:
    name = "ra-students"

    def __init__(self, seed):
        rng = random.Random(f"ra-students/{seed}")
        self.rosters = ["".join(_roster_lines(rng, n)) for n in ROSTER_LINES]
        live = _roster_lines(rng, ROSTER_TAIL_LINES + ROSTER_APPENDS)
        self.tail_initial = "".join(live[:ROSTER_TAIL_LINES])
        self.tail_appends = live[ROSTER_TAIL_LINES:]
        spanners = {name: compile_spanner(f) for name, f in _student_atoms().items()}
        self.expected = [oracle_students(spanners, text) for text in self.rosters]
        self.expected_tail = _tail_expected(
            self.tail_initial, self.tail_appends,
            lambda text: oracle_students(spanners, text)["example24"],
        )
        self.letters = sum(map(len, self.rosters))
        self.mappings = sum(len(e["figure2"]) + len(e["example24"]) for e in self.expected)

    def inputs(self):
        return {}

    def setup(self, workdir, tracer=None):
        return setup_students(self.inputs(), workdir, tracer)

    def describe(self) -> str:
        return (
            f"{len(self.rosters)} rosters of {ROSTER_LINES[0]}-{ROSTER_LINES[-1]} students, "
            f"{self.letters} letters, {self.mappings} mappings per query sweep"
        )

    def ops(self, state) -> list:
        engine, queries = state["engine"], state["queries"]
        ops = []
        for text, expected in zip(self.rosters, self.expected):
            for name in ("figure2", "example24"):
                query = queries[name]
                check = lambda out, name=name, expected=expected: frozenset(out) == expected[name]
                ops.append(Op(
                    "call", f"evaluate/{name}", len(text),
                    lambda q=query, text=text: engine.evaluate(q, text),
                    lambda layers, q=query, text=text: layers.evaluate(q, text),
                    check,
                ))
                ops.append(_enumerate_op(
                    f"enumerate/{name}", engine, query, lambda text=text: text,
                    len(text), check,
                ))
        ops += _tail_ops(
            "tail/example24", engine, queries["example24"], self.tail_initial,
            self.tail_appends, self.expected_tail, lambda out, text: frozenset(out),
        )
        return ops


WORKLOADS = {w.name: w for w in (LogsMonitor, RecordsScrape, RaStudents)}
SETUPS = {
    LogsMonitor.name: setup_logs,
    RecordsScrape.name: setup_records,
    RaStudents.name: setup_students,
}
