"""Documentation suite checks: the docs exist, link, and cannot rot.

The ``docs`` CI job additionally *executes* the RUNBOOK quickstart
(``scripts/run_runbook_quickstart.py``); here we keep the cheap
invariants in the tier-1 suite so a broken link or an undocumented
benchmark fails ``pytest`` locally, not just in CI.
"""

import argparse
import ast
import functools
import importlib.util
import json
import os
import re
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(REPO_ROOT, "docs")
SCRIPTS = os.path.join(REPO_ROOT, "scripts")


def _load_script(name):
    path = os.path.join(SCRIPTS, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def link_checker():
    return _load_script("check_markdown_links")


@pytest.fixture(scope="module")
def quickstart_runner():
    return _load_script("run_runbook_quickstart")


def _read(*parts):
    with open(os.path.join(REPO_ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


class TestDocsExistAndAreLinked:
    def test_runbook_and_benchmarks_exist(self):
        assert os.path.isfile(os.path.join(DOCS, "RUNBOOK.md"))
        assert os.path.isfile(os.path.join(DOCS, "BENCHMARKS.md"))

    def test_readme_links_to_both(self):
        readme = _read("README.md")
        assert "docs/RUNBOOK.md" in readme
        assert "docs/BENCHMARKS.md" in readme

    def test_runbook_covers_operator_topics(self):
        runbook = _read("docs", "RUNBOOK.md")
        for topic in (
            "/healthz",
            "/metrics",
            "/status",
            "serve-demo",
            "checkpoint",
            "re-alert",
            "backpressure",
        ):
            assert topic in runbook, topic

    def test_readme_counts_the_constructor_options(self):
        import inspect

        from repro.service import StreamingDetectionService

        (stated,) = re.findall(r"The constructor takes (\d+) options", _read("README.md"))
        parameters = inspect.signature(StreamingDetectionService.__init__).parameters
        assert int(stated) == len(parameters) - 1  # not ``self``

    def test_runbook_names_every_funnel_stage(self):
        from repro.obs.spans import STAGES

        runbook = _read("docs", "RUNBOOK.md")
        for stage in STAGES:
            assert stage in runbook, stage


class TestBenchmarksDocComplete:
    def test_every_benchmark_file_is_documented(self):
        doc = _read("docs", "BENCHMARKS.md")
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        benches = sorted(
            name
            for name in os.listdir(bench_dir)
            if name.startswith("bench_") and name.endswith(".py")
        )
        assert benches, "benchmarks/ went missing?"
        missing = [name for name in benches if f"`{name}`" not in doc]
        assert not missing, f"undocumented benchmarks: {missing}"

    def test_ci_gate_is_documented(self):
        doc = _read("docs", "BENCHMARKS.md")
        assert "scripts/bench_trajectory.py" in doc
        assert "BENCH_<pr>.json" in doc
        ci = _read(".github", "workflows", "ci.yml")
        assert "scripts/bench_trajectory.py" in ci
        assert "actions/cache" not in ci


class TestMarkdownLinks:
    def test_default_doc_set_has_no_broken_links(self, link_checker, capsys):
        exit_code = link_checker.main([])
        captured = capsys.readouterr()
        assert exit_code == 0, captured.err
        assert "0 broken" in captured.out

    def test_checker_catches_a_broken_link(self, link_checker, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("[dangling](no/such/file.md)\n", encoding="utf-8")
        problem = link_checker._check_link(str(bad), "no/such/file.md")
        assert problem is not None and "broken" in problem

    def test_checker_validates_anchors(self, link_checker, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# A Heading Here\n\ntext\n", encoding="utf-8")
        assert link_checker._check_link(str(doc), "#a-heading-here") is None
        assert link_checker._check_link(str(doc), "#nope") is not None


class TestRunbookQuickstart:
    def test_block_extracts_and_exercises_the_service(self, quickstart_runner):
        script = quickstart_runner.extract_quickstart()
        assert "serve-demo" in script
        assert "--obs-port" in script
        assert "--checkpoint-dir" in script
        # Every non-comment line is a command (or its continuation) —
        # an empty extraction must never pass vacuously.
        commands = [
            line
            for line in script.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
        assert commands

    def test_missing_marker_raises(self, quickstart_runner, tmp_path):
        plain = tmp_path / "RUNBOOK.md"
        plain.write_text("# no marker\n```bash\necho hi\n```\n", encoding="utf-8")
        with pytest.raises(ValueError):
            quickstart_runner.extract_quickstart(str(plain))


class TestDesignAndExperimentsCurrent:
    """The PR 2/3 features must be described where operators will look."""

    def test_design_documents_obs_layer(self):
        design = _read("DESIGN.md")
        assert "repro.obs" in design
        assert "EventLog" in design
        assert "ObservabilityServer" in design

    def test_experiments_documents_service_benchmarks(self):
        experiments = _read("EXPERIMENTS.md")
        assert "benchmarks/e2e/" in experiments
        assert "bench_ingest_frame_size.py" in experiments
        assert "scripts/bench_trajectory.py" in experiments

    def test_ci_has_docs_job(self):
        ci = _read(".github", "workflows", "ci.yml")
        assert "check_markdown_links.py" in ci
        assert "run_runbook_quickstart.py" in ci


class TestNoCallerlessBatchKernels:
    """ROADMAP: "a batch kernel is either the production path or it is
    deleted" — a ``*_batch`` export only tests call is a dead twin."""

    @staticmethod
    def _source(skip_folder=None):
        """All of ``src/repro`` as one string, optionally minus a package."""
        text = ""
        for folder, _, files in os.walk(os.path.join(REPO_ROOT, "src", "repro")):
            if os.path.basename(folder) != skip_folder:
                text += "".join(_read(folder, name) for name in files if name.endswith(".py"))
        return text

    def test_every_exported_batch_kernel_has_a_production_caller(self):
        import repro.stats

        production = self._source(skip_folder="stats")
        kernels = [name for name in repro.stats.__all__ if name.endswith(("_batch", "_rows"))]
        assert "cusum_screen_batch" in kernels, "the production screen is a *_batch kernel"
        assert len(kernels) >= 4, "the full scan is three *_rows kernels"
        dead = [name for name in kernels if not re.search(rf"\b{name}\b", production)]
        assert not dead, f"no caller in src/repro outside repro.stats: {dead}"
        # The detector's row-wise kernel is the pipeline's full scan.
        pipeline = _read(REPO_ROOT, "src", "repro", "core", "pipeline.py")
        assert "change_point_detector.detect_rows(" in pipeline

    def test_full_scan_kernels_keep_no_per_series_twin(self):
        """One CUSUM proposal, one EM sweep: the per-series bodies live
        under ``tests/``, the one-row entry points call the row-wise
        kernels, and the pipeline scans no series inside its loops."""
        src = os.path.join(REPO_ROOT, "src", "repro")
        cusum, em = _read(src, "stats", "cusum.py"), _read(src, "stats", "em.py")
        assert cusum.count("np.argmax(") == 1 and cusum.count("cusum_split_rows(") == 2
        assert em.count("np.argmax(") == 1 and em.count("em_split_rows(") == 2
        detector = _read(src, "core", "change_point.py")
        assert detector.count("likelihood_ratio_test(") == 1  # no second evaluator
        assert detector.count("self.detect_rows(") == 2  # detect, detect_increase
        source = _read(src, "core", "pipeline.py")
        # What the matrix pass and its second loop took up, no more.
        assert len(source.splitlines()) <= 710
        per_series = [
            ast.unparse(call.func)
            for loop in ast.walk(ast.parse(source))
            if isinstance(loop, ast.For)
            and "series" in {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
            for call in ast.walk(loop)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("detect", "detect_increase", "detect_rows")
        ]
        assert not per_series, per_series

    def test_scan_tail_kernels_keep_no_scalar_twin(self):
        """The per-point loess loop, the per-split likelihood, the sign
        matrix and the EM iteration budget live only under ``tests/``."""
        src = os.path.join(REPO_ROOT, "src", "repro")
        whole = self._source()
        for gone in ("_split_loglik", "max_em_iterations", "max_iterations"):
            assert gone not in whole, gone
        assert not re.search(r"for \w+ in range\(n\)", _read(src, "stats", "stl.py"))
        assert "np.sign(" not in _read(src, "stats", "mann_kendall.py")
        assert os.path.exists(os.path.join(REPO_ROOT, "tests", "_reference_kernels.py"))


    def test_went_away_and_trend_kernels_keep_no_per_call_numpy_form(self):
        """One sort per window, one pair plan, one lagged product: the
        ``np.median`` / ``np.percentile`` / ``np.triu`` calls they replaced,
        and the loop over every lag, live only under ``tests/``."""
        src = os.path.join(REPO_ROOT, "src", "repro")
        went_away = _read(src, "core", "went_away.py")
        assert "np.median(" not in went_away and "np.percentile(" not in went_away
        assert "np.triu(" not in _read(src, "stats", "mann_kendall.py")
        autocorrelation = _read(src, "stats", "autocorrelation.py")
        assert len(re.findall(r"\* x\[lag:\]", autocorrelation)) == 1
        assert "* x[lag:]" in autocorrelation  # the pattern above still means something
        # The benchmark's tracer wraps these by name, so each must resolve.
        # Seasonality calls stl_decompose per candidate; went-away is one row
        # pass, which calls mann_kendall_test and sax_encode only for rows
        # holding a NaN or an infinity, and the pipeline never calls check.
        import repro.core.seasonality as seasonality
        import repro.core.went_away as went_away

        for owner, name in (
            (went_away, "mann_kendall_test"),
            (went_away, "sax_encode"),
            (went_away.WentAwayDetector, "check"),
            (seasonality, "stl_decompose"),
        ):
            assert callable(getattr(owner, name)), name
        assert "stl_decompose(" in _read(src, "core", "seasonality.py")
        pipeline = _read(src, "core", "pipeline.py")
        assert "went_away_detector.diagnose_rows(" in pipeline
        assert "went_away_detector.check(" not in pipeline


class TestOneTimeAxis:
    """A window carries its samples' timestamps, and every index -> time
    question reads them: no module of the scan stack rebuilds a time on a
    uniform grid, and the view keeps no second description of the series."""

    @staticmethod
    def _names(node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    def test_no_core_module_rebuilds_a_time_from_an_index(self):
        core = os.path.join(REPO_ROOT, "src", "repro", "core")
        found = []
        for name in sorted(os.listdir(core)):
            if not name.endswith(".py"):
                continue
            for node in ast.walk(ast.parse(_read(core, name))):
                if isinstance(node, ast.Attribute) and node.attr == "linspace":
                    found.append(f"{name}:{node.lineno} linspace")
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                    sides = [self._names(node.left), self._names(node.right)]
                    index = [any("index" in n for n in side) for side in sides]
                    spacing = [
                        any(word in n for n in side for word in ("interval", "spacing"))
                        for side in sides
                    ]
                    if (index[0] and spacing[1]) or (index[1] and spacing[0]):
                        found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
        assert found == []

    def test_a_view_holds_times_and_no_cut(self):
        tree = ast.parse(_read(REPO_ROOT, "src", "repro", "tsdb", "windows.py"))
        [view] = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "WindowedView"
        ]
        members = {
            statement.target.id if isinstance(statement, ast.AnnAssign) else statement.name
            for statement in view.body
            if isinstance(statement, (ast.AnnAssign, ast.FunctionDef))
        }
        assert {"times", "values"} <= members
        assert not members & {"cut", "__getstate__"}


class TestParallelAdvanceOwnership:
    """A parallel advance reads a replica in a resident worker; the
    shard keeps its database and queue.  The swap protocol that made a
    borrowed *copy* safe to install, the scheduler's thread pool, and the
    per-advance process pool with its recreation and collateral reruns
    stay deleted."""

    def test_the_process_pool_stays_replaced_not_forked(self):
        service = os.path.join(REPO_ROOT, "src", "repro", "service")
        source = _read(service, "parallel.py")
        for gone in ("ProcessPoolExecutor", "BrokenProcessPool", "concurrent.futures"):
            assert gone not in source, gone
        # What the pool, its recreation, the collateral rerun and the
        # retry budget took up pays for the worker loop: no longer than
        # with one recovery path.
        assert len(source.splitlines()) <= 286

    def test_a_database_is_unpickled_only_where_a_worker_starts(self):
        """Shard state leaves pickled from ``shard.py`` alone, and comes
        back to life in three places: a checkpoint being restored, the
        worker entry point (a delta for the replica its fork holds), and
        the parent reading a worker's answer — a scheduler detached from
        any database."""
        service = os.path.join(REPO_ROOT, "src", "repro", "service")
        loads = set()
        for name in sorted(os.listdir(service)):
            if not name.endswith(".py"):
                continue
            for function in ast.walk(ast.parse(_read(service, name))):
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    loads |= {
                        (name, function.name, ast.unparse(call.func))
                        for call in ast.walk(function)
                        if isinstance(call, ast.Call)
                        and re.fullmatch(r"pickle\.loads?|\w+\.recv", ast.unparse(call.func))
                    }
        assert loads == {
            ("checkpoint.py", "_load_manifest", "pickle.loads"),
            ("parallel.py", "_advance_shard", "pickle.loads"),
            ("parallel.py", "_serve", "conn.recv"),
            ("parallel.py", "_answer", "pickle.loads"),
        }
        worker = _read(service, "parallel.py").split("def _advance_shard")[1]
        assert "scheduler.database = None" in worker.split("def _serve")[0]

    def test_no_advance_bracket_under_service(self):
        service = os.path.join(REPO_ROOT, "src", "repro", "service")
        gone = re.compile(r"begin_advance|complete_advance|abort_advance|_advancing")
        hits = [
            f"{name}: {match.group()}"
            for name in sorted(os.listdir(service))
            if name.endswith(".py")
            for match in gone.finditer(_read(service, name))
        ]
        assert not hits, hits

    def test_scheduler_imports_no_executor(self):
        scheduler = _read("src", "repro", "runtime", "scheduler.py")
        assert not re.search(r"concurrent\.futures|Executor|multiprocessing", scheduler)


class TestShardLeavesOneWay:
    """A shard is serialised in ``service/shard.py`` and nowhere else;
    ``Shard.bind`` is the one list of process-local handle holders.  The
    unlocked path and the hand-kept re-wire lists stay deleted."""

    def test_rewire_lists_do_not_reappear(self):
        whole = TestNoCallerlessBatchKernels._source()
        for gone in ("wire_metrics", "wire_tracer", "load_state"):
            assert gone not in whole, gone

    def test_only_the_shard_pickles_shard_state(self):
        service = os.path.join(REPO_ROOT, "src", "repro", "service")
        assert not re.search(r"^\s*import pickle", _read(service, "service.py"), re.M)
        assert "pickle.dumps" not in _read(service, "checkpoint.py")
        # Both forms (checkpoint, delta), each taken inside the queue lock.
        tree = ast.parse(_read(service, "shard.py"))

        def dumps_under(node):
            return {
                call.lineno
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "pickle.dumps"
            }

        locked = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.With) and any(
                ast.unparse(item.context_expr) == "self.worker.paused()"
                for item in node.items
            ):
                locked |= dumps_under(node)
        assert len(dumps_under(tree)) == 2 and dumps_under(tree) == locked


class TestScanStackHoldsNoHandles:
    """A scan returns its ledger: nothing under ``repro.core``,
    ``repro.runtime`` or ``repro.detectors`` holds a registry, a trace
    store or a sink; one function publishes, one function fans out, and
    the transport that carried worker metrics home stays deleted."""

    SRC = os.path.join(REPO_ROOT, "src", "repro")

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _functions(cls, *packages):
        """``(dotted function name, node)`` for every function under the
        packages (all of ``src/repro`` when none is named)."""
        found = []
        for root in [os.path.join(cls.SRC, package) for package in packages] or [cls.SRC]:
            for folder, _, files in os.walk(root):
                for name in sorted(files):
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(folder, name)
                    module = os.path.relpath(path, cls.SRC)[:-3].replace(os.sep, ".")
                    found += [
                        (f"{module}.{node.name}", node)
                        for node in ast.walk(ast.parse(_read(path)))
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ]
        return found

    def test_no_scan_class_assigns_a_handle(self):
        held = [
            f"{name}: self.{target.attr}"
            for name, function in self._functions("core", "runtime", "detectors")
            for node in ast.walk(function)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute)
            and ast.unparse(target.value) == "self"
            and target.attr in ("metrics", "tracer", "sinks")
        ]
        assert not held, held
        # ... and no __getstate__ is left there to null one.
        scan_stack = _read(self.SRC, "core", "pipeline.py") + _read(
            self.SRC, "runtime", "scheduler.py"
        )
        assert not re.search(r'state\["(metrics|tracer|sinks)"\]', scan_stack)

    def test_no_scan_class_holds_a_scan_context(self):
        """Stack samples and the change log are a scan's context, handed to
        each run: no detector, pipeline or scheduler keeps them."""
        held = [
            f"{name}: self.{target.attr}"
            for name, function in self._functions("core", "runtime", "detectors")
            for node in ast.walk(function)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute)
            and ast.unparse(target.value) == "self"
            and target.attr in ("samples", "change_log", "samples_before", "samples_after")
        ]
        assert not held, held

    @staticmethod
    def _calls(function):
        return [node for node in ast.walk(function) if isinstance(node, ast.Call)]

    def test_one_function_calls_a_sink(self):
        callers = {
            name
            for name, function in self._functions()
            for call in self._calls(function)
            if ast.unparse(call.func) == "sink.deliver"
        }
        assert callers == {"runtime.sinks.deliver"}
        assert len(re.findall(r"\bsink\.deliver\(", TestNoCallerlessBatchKernels._source())) == 1

    def test_one_function_publishes_scan_metrics(self):
        """A ``pipeline.`` / ``scheduler.`` metric name reaches a registry
        in ``publish`` and nowhere else (the pipeline counts into its
        run-local ``counts``, which is not one)."""

        def names_a_scan_metric(call):
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in ("inc", "observe", "timer", "counter", "histogram")
                and ast.unparse(call.func.value).split(".")[-1] in ("metrics", "registry")
                and call.args
            ):
                return False
            first = call.args[0]
            if isinstance(first, ast.JoinedStr):  # an f-string: its literal head
                first = first.values[0] if first.values else first
            return isinstance(first, ast.Constant) and str(first.value).startswith(
                ("pipeline.", "scheduler.")
            )

        publishers = {
            name
            for name, function in self._functions()
            if any(names_a_scan_metric(call) for call in self._calls(function))
        }
        assert publishers == {"runtime.scheduler.publish"}

    def test_the_metrics_transport_stays_deleted(self):
        whole = TestNoCallerlessBatchKernels._source()
        for gone in ("merge_state", "record_many", "_deliver_to_sinks", "_Lockable"):
            assert gone not in whole, gone
        defined = [name for name, _ in self._functions() if name.endswith(".wire")]
        assert defined == []
        called = {
            ast.unparse(call.func)
            for _, function in self._functions()
            for call in self._calls(function)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "wire"
        }
        assert called == set()
        registry = ast.parse(_read(self.SRC, "service", "metrics.py"))
        methods = {
            node.name for node in ast.walk(registry) if isinstance(node, ast.FunctionDef)
        }
        assert not {"merge", "__getstate__", "__setstate__"} & methods
        worker = next(
            function
            for name, function in self._functions("service")
            if name == "service.parallel._advance_shard"
        )
        built = {ast.unparse(call.func) for call in self._calls(worker)}
        assert not {"MetricsRegistry", "TraceStore"} & built


#: Registry methods whose first argument is a metric name.
RECORDERS = ("inc", "observe", "timer", "counter", "histogram", "_inc")


def _recorded(call):
    """The metric name a registry call records — an f-string's formatted
    parts read ``*`` — or ``None`` when the call records no literal name."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr in RECORDERS and call.args):
        return None
    first = call.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    if isinstance(first, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "*" for part in first.values
        )
    return None


@functools.lru_cache(maxsize=None)
def _overlap(a, b):
    """Whether two ``*`` globs match some common string."""
    if not a or not b:
        return set(a + b) <= {"*"}
    if "*" in (a[0], b[0]):
        star, other = (a, b) if a[0] == "*" else (b, a)
        return _overlap(star[1:], other) or _overlap(star, other[1:])
    return a[0] == b[0] and _overlap(a[1:], b[1:])


def _sanitized(name):
    return re.sub(r"[^0-9A-Za-z_*]", "_", name)


class TestOneHomePerCount:
    """A count its owner keeps — ingest worker, admission, scheduler,
    incremental-scan cache, the service's own ints — reaches
    ``/metrics`` through the fold in ``repro.service.views`` and nowhere
    else: the ingest side holds no registry, no call in ``src/`` records
    an owned name (a run's ledger included), and the restore step that
    reconciled the mirrors stays deleted."""

    SRC = TestScanStackHoldsNoHandles.SRC

    def test_the_ingest_side_holds_no_registry(self):
        functions = TestScanStackHoldsNoHandles._functions("quality", "detectors") + [
            (name, function)
            for name, function in TestScanStackHoldsNoHandles._functions("service")
            if name.startswith("service.ingest.")
        ]
        assert any(name.startswith("service.ingest.") for name, _ in functions)
        held = [
            f"{name}: self.metrics"
            for name, function in functions
            for node in ast.walk(function)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if ast.unparse(target) == "self.metrics"
        ]
        assert not held, held

    def test_no_call_records_an_owned_name(self):
        from test_owned_metrics import OWNED

        recorded = {
            (name, _recorded(call))
            for name, function in TestScanStackHoldsNoHandles._functions()
            for call in TestScanStackHoldsNoHandles._calls(function)
            if _recorded(call) is not None
        }
        assert ("runtime.scheduler.publish", "scheduler.scan_failures") in recorded  # sees names
        assert not _overlap("sink.webhook.*", "ingest.accepted")  # ... and tells them apart
        clashes = sorted(
            (name, metric)
            for name, metric in recorded
            if any(_overlap(metric, pattern) for pattern in OWNED)
        )
        assert not clashes, clashes

    def test_the_reconciliation_stays_deleted(self):
        whole = TestNoCallerlessBatchKernels._source()
        for gone in ("_MIRRORED", "mirrored_counters"):
            assert gone not in whole, gone
        assert "owners win" not in whole.lower()
        service = _read(self.SRC, "service", "service.py")
        assert len(service.splitlines()) < 760


class TestRunbookNamesWhatMetricsServes:
    """Every name in RUNBOOK's ``/metrics`` table is served: it is in the
    ``/metrics`` golden, a name ``src/`` records, or a family the fold
    emits — and the table says who owns each."""

    @staticmethod
    def _rows():
        runbook = _read("docs", "RUNBOOK.md")
        section = runbook.split("### `/metrics`")[1].split("\n### ")[0]
        return [line for line in section.splitlines() if line.startswith("| `")]

    @classmethod
    def _names(cls):
        """Column one's names; ``_suffix`` swaps the last part of the
        cell's first name (``pipeline_incremental_hits`` / ``_misses``)."""
        names = []
        for row in cls._rows():
            cell = re.findall(r"`([^`]+)`", row.split("|")[1])
            stem = cell[0].rsplit("_", 1)[0]
            names += [stem + token if token.startswith("_") else token for token in cell]
        return names

    def test_every_listed_metric_is_served(self):
        from test_owned_metrics import OWNED

        with open(os.path.join(REPO_ROOT, "tests", "data", "metrics_golden.json"),
                  encoding="utf-8") as source:
            golden = set(json.load(source)["names"])
        recorded = {
            _sanitized(_recorded(call))
            for _, function in TestScanStackHoldsNoHandles._functions()
            for call in TestScanStackHoldsNoHandles._calls(function)
            if _recorded(call) is not None
        }
        known = recorded | {_sanitized(pattern) for pattern in OWNED}
        names = self._names()
        unserved = [
            name for name in names
            if name not in golden
            and not any(_overlap(re.sub(r"\{[^}]*\}", "*", name), glob) for glob in known)
        ]
        assert not unserved, unserved
        assert {"ingest_dropped_oldest", "quality_quarantined_{reason}"} <= set(names)

    def test_every_row_names_its_owner(self):
        owners = {"worker", "admission", "scheduler", "cache", "service", "registry"}
        header = _read("docs", "RUNBOOK.md").split("### `/metrics`")[1]
        assert "| Metric | Type | Owner | Meaning |" in header
        for row in self._rows():
            assert row.split("|")[3].strip() in owners, row


class TestAShardAnswersForItself:
    """The read side is one ``path -> view`` table folding ``Shard``
    accessors: no view (and nothing under ``repro.obs``) reaches through
    to a shard's worker or scheduler, and the service keeps routing,
    advance, delivery, lifecycle and checkpoint — none of the renderers."""

    SRC = TestScanStackHoldsNoHandles.SRC
    MOVED = {
        "healthz", "status_snapshot", "faults_snapshot", "quality_snapshot",
        "detectors_snapshot", "render_metrics", "funnel_trace",
    }

    @classmethod
    def _tree(cls, *parts):
        return ast.parse(_read(cls.SRC, *parts))

    def test_views_and_obs_reach_into_no_shard(self):
        modules = [("service", "views.py")] + [
            ("obs", name) for name in sorted(os.listdir(os.path.join(self.SRC, "obs")))
            if name.endswith(".py")
        ]
        reached = [
            f"{'/'.join(parts)}:{node.lineno} .{node.attr}"
            for parts in modules
            for node in ast.walk(self._tree(*parts))
            if isinstance(node, ast.Attribute)
            and node.attr in ("worker", "scheduler", "admission", "_series", "_stale")
        ]
        assert not reached, reached

    def test_every_view_in_the_table_is_a_named_function(self):
        tree = self._tree("service", "views.py")
        functions = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        (table,) = [
            node.value for node in tree.body
            if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "VIEWS"
        ]
        assert len(table.values) >= 5
        for value in table.values:
            assert isinstance(value, ast.Name) and value.id in functions, ast.unparse(value)
        # ... and the HTTP layer routes that table, not one of its own.
        http = _read(self.SRC, "obs", "http.py")
        assert "from repro.service.views import VIEWS" in http
        assert "lambda" not in http and "def _healthz" not in http

    def test_no_moved_view_is_left_on_the_service(self):
        tree = self._tree("service", "service.py")
        (service,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "StreamingDetectionService"
        ]
        defined = {
            node.name for node in ast.walk(service) if isinstance(node, ast.FunctionDef)
        }
        assert not defined & self.MOVED, defined & self.MOVED
        assert not {name for name in defined if "data_faults" in name}
        source = _read(self.SRC, "service", "service.py")
        assert "FaultKind" not in source and "_data_held" not in source
        assert len(source.splitlines()) <= 800

    def test_the_service_touches_a_shards_parts_only_to_offer_flush_and_register(self):
        uses = {
            node.attr
            for node in ast.walk(self._tree("service", "service.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("worker", "scheduler")
        }
        assert uses == {"offer", "flush", "register"}


class TestOneIngestEntry:
    """Ingest goes in by the batch: the service routes a call's frames to
    each shard once, and the worker and admission each take frames
    through one public method, whose parameter is a batch — no per-frame
    method beside it."""

    SRC = TestScanStackHoldsNoHandles.SRC

    @classmethod
    def _methods(cls, module, name):
        tree = ast.parse(_read(cls.SRC, *module.split("/")))
        (node,) = [
            node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name
        ]
        return [item for item in node.body if isinstance(item, ast.FunctionDef)]

    @staticmethod
    def _takes_frames(arg):
        annotation = ast.unparse(arg.annotation) if arg.annotation is not None else ""
        return arg.arg in ("frame", "frames") or "SeriesFrame" in annotation

    def test_the_service_ingests_frames_by_the_call(self):
        defined = {
            method.name
            for method in self._methods("service/service.py", "StreamingDetectionService")
        }
        assert "ingest_frames" in defined and "ingest_frame" not in defined

    @pytest.mark.parametrize(
        "module, name, entry",
        [
            ("service/ingest.py", "ShardIngestWorker", "offer"),
            ("quality/admission.py", "AdmissionController", "admit"),
        ],
    )
    def test_one_public_method_takes_frames(self, module, name, entry):
        taking = [
            (method.name, [arg.arg for arg in method.args.args[1:] if self._takes_frames(arg)])
            for method in self._methods(module, name)
            if not method.name.startswith("_")
            and any(self._takes_frames(arg) for arg in method.args.args[1:])
        ]
        assert taking == [(entry, ["frames"])]


class TestEveryPublicNameHasACaller:
    """Every public definition in ``src/repro`` — a module-level def or
    class, and each public method of such a class — is used from
    ``src/``, ``benchmarks/``, ``examples/`` or ``scripts/``, or sits in
    :attr:`ALLOWED` with the reason it is kept.  A use is a name or an
    attribute with its name, an import outside an ``__init__.py`` (a
    re-export is no user) or a ``_target`` row of the benchmark's tracer
    (``benchmarks/e2e/layers.py`` wraps what it names); one inside the
    definition's own body does not count, nor does an ``__all__``
    string.  Matching is by name, so this finds no false orphans; it may
    miss a real one that shares its name with something used."""

    #: Stdlib handler overrides: the HTTP server calls them.
    EXEMPT = {"do_GET", "do_POST", "log_message"}
    #: The only reasons a name without a caller may stay: a seam a chaos
    #: or SIGKILL drill needs, a reference implementation tests compare
    #: against, an input a ROADMAP item names, or API a doc names.
    CATEGORIES = ("seam:", "reference:", "roadmap:", "doc:")
    ALLOWED = {
        "repro.service.parallel.ParallelShardExecutor.worker_pids":
            "seam: the SIGKILL drills kill a resident worker by its pid",
        "repro.obs.http.HttpEndpoint.running":
            "seam: the HTTP tests watch the listener start and stop",
        "repro.tsdb.series.TimeSeries.between":
            "seam: the reference window checks and the TSDB model read sub-series",
        "repro.fleet.subroutine.CallGraph.clone":
            "seam: the fleet tests mutate a copy of a call graph",
        "repro.stats.incremental.StreamingCusum":
            "reference: the scalar screen cusum_screen_batch is held to",
        "repro.stats.incremental.StreamingCusum.reanchor":
            "reference: the scalar screen's re-anchor after a full scan",
        "repro.stats.autocorrelation.acf":
            "reference: held equal to the per-lag loop in _reference_kernels",
        "repro.stats.cusum.cusum_statistic":
            "reference: the whole CUSUM curve the split kernels are checked by",
        "repro.stats.robust.sorted_percentile":
            "reference: the one-row percentile held to np.percentile",
        "repro.profiling.aggregate.StackTrie.folded":
            "roadmap: item 7(d), /profile returns folded stacks",
        "repro.fleet.scenarios.single_server_cpu":
            "roadmap: item 3(d)'s fleet workload draws its shapes from repro.fleet.scenarios",
        "repro.fleet.scenarios.cost_shift_series":
            "roadmap: item 3(d)'s fleet workload draws its shapes from repro.fleet.scenarios",
        "repro.fleet.scenarios.spike_then_regression":
            "roadmap: item 3(d)'s fleet workload draws its shapes from repro.fleet.scenarios",
        "repro.fleet.scenarios.noisy_step_series":
            "roadmap: item 3(d)'s fleet workload draws its shapes from repro.fleet.scenarios",
        "repro.connectors.importers.JsonLinesImporter":
            "doc: docs/RUNBOOK.md, Importing real data, names JsonLinesImporter.import_into",
        "repro.service.service.StreamingDetectionService.unquarantine":
            "doc: docs/RUNBOOK.md, Data-quality triage, calls service.unquarantine",
    }

    @staticmethod
    def _trees(*tops):
        for top in tops:
            for folder, _, names in os.walk(os.path.join(REPO_ROOT, top)):
                for name in sorted(names):
                    if name.endswith(".py"):
                        path = os.path.join(folder, name)
                        yield path, ast.parse(_read(path))

    @classmethod
    def _definitions(cls):
        """``(qualified name, node, path)`` of every counted definition."""
        src = os.path.join(REPO_ROOT, "src", "repro")
        public = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for path, tree in cls._trees(os.path.join("src", "repro")):
            module = "repro." + os.path.relpath(path, src)[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            for node in tree.body:
                if not isinstance(node, public) or node.name.startswith("_"):
                    continue
                yield f"{module}.{node.name}", node, path
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, public[:2]) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member, path

    @classmethod
    def _uses(cls):
        """name -> ``[(path, line)]`` of every counted use."""
        uses = {}
        for path, tree in cls._trees("src", "benchmarks", "examples", "scripts"):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and not path.endswith("__init__.py"):
                    names = [alias.name for alias in node.names]
                elif (  # _target(layer, module, "Class.attr", kind, ...)
                    isinstance(node, ast.Call) and ast.unparse(node.func) == "_target"
                    and len(node.args) > 2 and isinstance(node.args[2], ast.Constant)
                ):
                    names = node.args[2].value.split(".")
                else:
                    continue
                for name in names:
                    uses.setdefault(name, []).append((path, node.lineno))
        return uses

    def test_every_public_definition_has_a_caller_or_a_reason(self):
        uses = self._uses()
        orphans = {
            qualified
            for qualified, node, path in self._definitions()
            if node.name not in self.EXEMPT
            and all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in uses.get(node.name, ())
            )
        }
        assert sorted(orphans - self.ALLOWED.keys()) == [], "delete it, or allow-list it"
        # An entry whose name gained a caller, or is gone, leaves the list.
        assert sorted(self.ALLOWED.keys() - orphans) == []

    def test_every_reason_is_one_of_the_four(self):
        for name, reason in self.ALLOWED.items():
            assert reason.startswith(self.CATEGORIES), name


class TestEveryKnobIsSet:
    """Every parameter of a constructor in ``src/repro`` — each class
    with an ``__init__`` of its own — and every init field of the config
    dataclasses in :attr:`DATACLASSES` is set by some call in ``src/``,
    ``benchmarks/``, ``examples/`` or ``scripts/``, or sits in
    :attr:`ALLOWED` with the reason it is kept.  A value only tests set
    is a second configuration every property has to cover: make it a
    module constant (a test patches it) or delete it.
    A call sets a parameter by position or by keyword, unless the
    keyword's value is spelled as the default is; a call inside the class
    itself sets nothing, nor does ``**kwargs``.  A call to a subclass
    without an ``__init__`` of its own is a call to its base.  The calls
    in :attr:`FORWARDERS` hand their ``**kwargs`` to the pipeline, so a
    keyword on one of them naming a :class:`DetectionPipeline` parameter
    sets that parameter."""

    DATACLASSES = ("TimeSeries", "QualityGate", "DetectionConfig", "MergeRule")
    FORWARDERS = ("FBDetect", "register", "register_monitor")
    #: Reasons a knob nothing sets may stay: a deployment sizes it, or it
    #: is input data the paper's method reads.
    CATEGORIES = ("deployment:", "input:")
    ALLOWED = {
        "StreamingDetectionService.retention":
            "deployment: bounds a long-running service's memory",
        "HttpEndpoint.host":
            "deployment: the observability endpoint's bind address",
        "RemoteWriteReceiver.host":
            "deployment: the remote-write endpoint's bind address",
        "RemoteWriteReceiver.port":
            "deployment: the remote-write endpoint's port; 0 picks a free one",
        "RootCauseAnalyzer.setup_series":
            "input: the setup metrics behind section 5.6's third factor, "
            "reported as time_correlation",
        "FrameColumns.names":
            "input: a batch's columns, built by FrameColumns.of and .join",
        "FrameColumns.tags":
            "input: a batch's columns, built by FrameColumns.of and .join",
        "FrameColumns.lengths":
            "input: a batch's columns, built by FrameColumns.of and .join",
        "FrameColumns.timestamps":
            "input: a batch's columns, built by FrameColumns.of and .join",
        "FrameColumns.values":
            "input: a batch's columns, built by FrameColumns.of and .join",
        "FunnelTrace.runs":
            "input: the run traces FunnelTrace.from_store folds",
        "StreamingCusum.mean":
            "input: the screen's anchor, the reference window's mean",
        "StreamingCusum.std":
            "input: the screen's anchor, the reference window's std",
        "EgadsModel.sensitivity":
            "input: the Figure 8 sweep's x axis, set through model_class(s)",
    }

    @staticmethod
    def _fields(body):
        """``(name, default)`` of a dataclass body's init fields."""
        for statement in body:
            if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
                continue
            value = statement.value
            if isinstance(value, ast.Call) and "init=False" in map(ast.unparse, value.keywords):
                continue
            yield statement.target.id, value and ast.unparse(value)

    @staticmethod
    def _parameters(init):
        """``(name, default)`` of ``__init__``'s parameters after ``self``."""
        arguments = init.args
        positional = arguments.args[1:]
        defaults = [None] * (len(positional) - len(arguments.defaults)) + arguments.defaults
        pairs = list(zip(positional, defaults)) + list(zip(arguments.kwonlyargs, arguments.kw_defaults))
        return [(argument.arg, default and ast.unparse(default)) for argument, default in pairs]

    @classmethod
    def _knobs(cls):
        """Class name -> ``(path, class node, [(name, default)] in
        positional order)`` of every constructor and config dataclass,
        and subclass name -> base name for each subclass that has no
        ``__init__`` of its own."""
        knobs, bases, seen = {}, {}, []
        for path, tree in TestEveryPublicNameHasACaller._trees(os.path.join("src", "repro")):
            for node in tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                inits = [
                    member for member in node.body
                    if isinstance(member, ast.FunctionDef) and member.name == "__init__"
                ]
                if inits:
                    parameters = [p for i in inits for p in cls._parameters(i)]
                elif node.name in cls.DATACLASSES:
                    parameters = list(cls._fields(node.body))
                else:
                    bases[node.name] = [ast.unparse(base) for base in node.bases]
                    continue
                knobs[node.name] = (path, node, parameters)
                seen.append(node.name)
        # Knobs are keyed by class name, so a name must not repeat.
        assert sorted(name for name in set(seen) if seen.count(name) > 1) == []
        aliases = {}
        for name in bases:
            base = name
            while base in bases:  # up a chain of subclasses without one
                base = next((b for b in bases[base] if b in knobs or b in bases), None)
            if base in knobs:
                aliases[name] = base
        return knobs, aliases

    @staticmethod
    def _keywords(node, parameters):
        """Names ``node`` sets by a keyword not spelled as the default."""
        defaults = dict(parameters)
        return [
            keyword.arg for keyword in node.keywords
            if keyword.arg in defaults and ast.unparse(keyword.value) != defaults[keyword.arg]
        ]

    @classmethod
    def _set(cls, knobs, aliases):
        """``Class.name`` of every knob some call sets."""
        done = set()
        pipeline = knobs["DetectionPipeline"][2]
        for path, tree in TestEveryPublicNameHasACaller._trees(
            "src", "benchmarks", "examples", "scripts"
        ):
            for node in ast.walk(tree):
                callee = isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
                )
                if callee in cls.FORWARDERS:
                    done.update(
                        f"DetectionPipeline.{name}" for name in cls._keywords(node, pipeline)
                    )
                callee = aliases.get(callee, callee)
                if callee not in knobs:
                    continue
                where, owner, parameters = knobs[callee]
                if where == path and owner.lineno <= node.lineno <= owner.end_lineno:
                    continue
                positional = []
                for argument in node.args:
                    if isinstance(argument, ast.Starred):
                        break
                    positional.append(argument)
                names = [name for name, _ in parameters[: len(positional)]]
                names += cls._keywords(node, parameters)
                done.update(f"{callee}.{name}" for name in names)
        return done

    def test_every_knob_is_set_outside_the_tests_or_has_a_reason(self):
        knobs, aliases = self._knobs()
        assert set(self.DATACLASSES) <= knobs.keys()
        every = {
            f"{owner}.{name}" for owner, (_, _, parameters) in knobs.items()
            for name, _ in parameters
        }
        unset = every - self._set(knobs, aliases)
        assert sorted(unset - self.ALLOWED.keys()) == [], "make it a constant, or delete it"
        # An entry whose knob gained a caller, or is gone, leaves the list.
        assert sorted(self.ALLOWED.keys() - unset) == []
        for name, reason in self.ALLOWED.items():
            assert reason.startswith(self.CATEGORIES), name


class TestFaultsComeFromOutside:
    """Every fault a drill needs is done to the service from outside: a
    signal to a worker pid (``ParallelShardExecutor.worker_pids()``), a
    wrapper around ``parallel._advance_shard`` installed before the fork,
    a ``write_batch`` that raises, dirty data (``repro.fleet.dirty``),
    bytes flipped on disk, a stepped ``time.time``.  So no injector, no
    hook for one and no deadline knob comes back: the deadline is the
    module constant ``ADVANCE_DEADLINE``, which a test patches."""

    SRC = os.path.join(REPO_ROOT, "src", "repro")

    def test_the_injector_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.faults")

    def test_no_signature_takes_an_injector_or_a_deadline(self):
        taking = []
        for path, tree in TestEveryPublicNameHasACaller._trees(os.path.join("src", "repro")):
            for owner in ast.walk(tree):
                for node in ast.iter_child_nodes(owner):
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    arguments = node.args
                    names = [
                        argument.arg
                        for argument in (
                            arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                            + [arguments.vararg, arguments.kwarg]
                        )
                        if argument is not None
                    ]
                    on_the_service = getattr(owner, "name", None) in (
                        "StreamingDetectionService", "ParallelShardExecutor",
                    )
                    taking += [
                        f"{os.path.basename(path)}:{node.name}({name})"
                        for name in names
                        if "injector" in name or (on_the_service and "deadline" in name)
                    ]
        assert taking == []

    def test_the_worker_entry_point_takes_only_its_work(self):
        tree = ast.parse(_read(self.SRC, "service", "parallel.py"))
        (entry,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_advance_shard"
        ]
        assert [argument.arg for argument in entry.args.args] == [
            "shard_id", "blob", "target", "replicas",
        ]

    def test_the_executor_neither_exits_nor_sleeps(self):
        tree = ast.parse(_read(self.SRC, "service", "parallel.py"))
        calls = [
            ast.unparse(call)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and ast.unparse(call.func) in ("os._exit", "time.sleep", "sleep", "_exit")
        ]
        assert calls == []

    def test_no_checkpoint_or_clock_or_ingest_hook(self):
        import inspect

        from repro.service import StreamingDetectionService
        from repro.service.checkpoint import CheckpointManager

        assert "fault_injector" not in inspect.signature(CheckpointManager.__init__).parameters
        for gone in ("_wall", "_offer_routed"):
            assert not hasattr(StreamingDetectionService, gone), gone


class TestChallengersAreJudgedOffline:
    """A challenger detector is scored offline, by ``default_suite()`` on
    the scorecard corpus (``benchmarks/bench_detector_scorecard.py``),
    never beside a live scan: nothing in the service imports the
    detectors, no constructor takes a challenger, and no endpoint or
    flag serves one, so no hook for them comes back."""

    SRC = TestFaultsComeFromOutside.SRC

    def test_only_the_detectors_package_imports_it(self):
        importers = []
        for folder, _, files in os.walk(self.SRC):
            if os.path.relpath(folder, self.SRC).split(os.sep)[0] == "detectors":
                continue
            for name in files:
                if not name.endswith(".py"):
                    continue
                for node in ast.walk(ast.parse(_read(folder, name))):
                    if isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    elif isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    else:
                        continue
                    importers += [
                        f"{os.path.relpath(os.path.join(folder, name), self.SRC)}:{node.lineno}"
                        for module in modules
                        if module == "repro.detectors" or module.startswith("repro.detectors.")
                    ]
        assert not importers, importers

    def test_no_constructor_takes_a_challenger(self):
        import inspect

        from repro.core.pipeline import DetectionPipeline
        from repro.service import StreamingDetectionService

        for function in (StreamingDetectionService.register_monitor, DetectionPipeline.__init__):
            assert "shadow" not in inspect.signature(function).parameters, function

    def test_no_endpoint_or_flag_serves_one(self):
        from repro.cli import build_parser
        from repro.service.views import VIEWS

        assert "/detectors" not in VIEWS
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            flag for action in subparsers.choices["serve-demo"]._actions
            for flag in action.option_strings
        }
        assert "--obs-port" in flags  # sees the flags ...
        assert "--shadow" not in flags  # ... and this one is gone

    def test_the_incumbent_is_the_pipeline_not_a_copy_of_its_stages(self):
        """``IncumbentDetector`` scans through ``FBDetect``: the detectors
        import none of the Figure 6 stage classes, so no second chain of
        them can drift from the one every monitor runs."""
        imported = set()
        for folder, _, files in os.walk(os.path.join(self.SRC, "detectors")):
            for name in files:
                if name.endswith(".py"):
                    imported.update(
                        alias.name
                        for node in ast.walk(ast.parse(_read(folder, name)))
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names
                    )
        stages = {"ChangePointDetector", "WentAwayDetector", "SeasonalityDetector"}
        assert imported & stages == set()
        assert "FBDetect" in imported


class TestServiceStartsNoThreads:
    """Time is the caller's: data reaches a shard's TSDB through
    ``advance_to`` (a delta's or a worker fork's flush among it),
    ``flush()`` or a BLOCK producer's caller-runs flush, never on a
    thread of the service's own.  So no
    background-flusher mode comes back: no module under
    ``repro.service`` constructs a thread, the service has no ``start``
    / ``stop``, and ``/healthz`` counts no flushers."""

    SERVICE = os.path.join(TestFaultsComeFromOutside.SRC, "service")
    THREADS = {"Thread", "Timer", "ThreadPoolExecutor", "start_new_thread"}

    def test_no_service_module_constructs_a_thread(self):
        made = []
        for folder, _, files in os.walk(self.SERVICE):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                for node in ast.walk(ast.parse(_read(folder, name))):
                    if isinstance(node, ast.Call):
                        called = [node.func]
                    elif isinstance(node, ast.ClassDef):
                        called = node.bases  # a Thread subclass is one too
                    else:
                        continue
                    made += [
                        f"{name}:{node.lineno}"
                        for target in called
                        if ast.unparse(target).split(".")[-1] in self.THREADS
                    ]
        assert not made, made

    def test_the_service_has_no_start_or_stop(self):
        from repro.service import StreamingDetectionService

        with StreamingDetectionService(n_shards=1) as service:
            for gone in ("start", "stop", "_flushers", "_stop_flushers"):
                assert not hasattr(service, gone), gone

    def test_healthz_counts_no_flushers(self):
        from repro.service import StreamingDetectionService
        from repro.service import views

        with StreamingDetectionService(n_shards=2) as service:
            status, payload = views.healthz(service)
        assert status == 200
        assert "flushers_alive" not in payload
        assert [shard["degraded"] for shard in payload["shards"]] == [None, None]


class TestReplicasAreForked:
    """A worker process is forked holding its shards, at the first
    parallel advance that needs it: no shard is pickled to build a
    replica, so the seed form stays deleted, the executor's constructor
    starts no process, and ``shard.py`` pickles only the durable form
    and the delta."""

    SERVICE = TestServiceStartsNoThreads.SERVICE

    def test_the_shard_has_no_seed_form(self):
        from repro.service import BackpressurePolicy
        from repro.service.shard import Shard

        shard = Shard(0, 4, BackpressurePolicy.BLOCK, 4, 0.0)
        names = set(dir(Shard)) | set(vars(shard))
        assert not {"seed", "snapshot", "seeded"} & names

    def test_the_executor_constructor_starts_no_process(self):
        import contextlib
        import inspect
        import multiprocessing

        from repro.service import ParallelShardExecutor

        assert "seeds" not in inspect.signature(ParallelShardExecutor.__init__).parameters
        before = set(multiprocessing.active_children())
        with ParallelShardExecutor(2, lambda index: contextlib.nullcontext({})) as executor:
            assert executor.worker_pids() == []
            assert set(multiprocessing.active_children()) == before

    def test_shard_pickles_only_the_checkpoint_and_the_delta(self):
        tree = ast.parse(_read(self.SERVICE, "shard.py"))

        def dumps(node):
            return {
                call.lineno
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "pickle.dumps"
            }

        kept = [
            dumps(function)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and function.name in ("checkpoint_blob", "delta")
        ]
        assert len(kept) == 2 and all(kept)
        assert dumps(tree) == set().union(*kept)


class TestNoDetectorRidesAPickle:
    """A monitor travels as its configuration, scan context and state: a
    shard checkpoint blob and a worker's pickled answer name no class of
    ``repro.core.pipeline`` and no Figure 6 stage.  The classes a pickle
    names are read off its ``GLOBAL`` / ``STACK_GLOBAL`` opcodes, without
    unpickling it."""

    STAGES = {
        "ChangePointDetector", "WentAwayDetector", "SeasonalityDetector",
        "SameRegressionMerger", "SOMDedup", "PairwiseDedup", "LongTermDetector",
        "CostShiftDetector", "RootCauseAnalyzer",
    }

    @staticmethod
    def _classes(blob):
        """``(module, name)`` of every global ``blob`` names."""
        import pickletools

        named, memo, strings, last = set(), {}, [], None
        for opcode, arg, _ in pickletools.genops(blob):
            if opcode.name == "GLOBAL":
                named.add(tuple(arg.split(" ", 1)))
            elif opcode.name == "STACK_GLOBAL":
                named.add((strings[-2], strings[-1]))
            if "UNICODE" in opcode.name:
                last = arg
                strings.append(arg)
            elif opcode.name in ("GET", "BINGET", "LONG_BINGET"):
                last = memo.get(arg)
                strings.append(last)
            elif opcode.name == "MEMOIZE":
                memo[len(memo)] = last
            elif opcode.name in ("PUT", "BINPUT", "LONG_BINPUT"):
                memo[arg] = last
            else:
                last = None
        return named

    def test_a_blob_and_an_answer_name_no_pipeline_or_stage(self):
        import copy
        import pickle

        import numpy as np

        from repro.config import DetectionConfig
        from repro.fleet.changes import ChangeEffect, ChangeLog, CodeChange
        from repro.profiling.stacktrace import StackTrace
        from repro.service import StreamingDetectionService, parallel
        from repro.tsdb import SeriesFrame, WindowSpec

        config = DetectionConfig(
            name="pickle", threshold=5e-5, rerun_interval=6_000.0, long_term=False,
            windows=WindowSpec(historic=36_000.0, analysis=12_000.0, extended=6_000.0),
        )
        service = StreamingDetectionService(n_shards=1)
        service.register_monitor(
            "gcpu", config, series_filter={"metric": "gcpu"},
            change_log=ChangeLog([CodeChange("c", 41_500.0, effects=(ChangeEffect("s0", 1.3),))]),
            samples=[StackTrace.from_names(["_start", "s0"])],
        )
        rng = np.random.default_rng(0)
        stamps = np.arange(1_000) * 60.0
        for index in range(4):
            values = rng.normal(1e-3, 2e-5, 1_000) + (3e-4 if index < 2 else 0.0) * (stamps >= 42e3)
            tags = {"metric": "gcpu", "service": "svc", "subroutine": f"s{index}"}
            service.ingest_frames([SeriesFrame(f"svc.s{index}.gcpu", tags, stamps, values)])
        assert service.advance_to(60_000.0), "the monitor reported, so its state is full"
        (shard,) = service._shards.values()
        with shard.forking() as held:
            replicas = {0: (0, *copy.deepcopy(held))}
        answer = parallel._advance_shard(0, b"", 66_000.0, replicas)
        for blob in (shard.checkpoint_blob(), pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)):
            named = self._classes(blob)
            assert [
                (module, name) for module, name in sorted(named)
                if module == "repro.core.pipeline" or name in self.STAGES
            ] == []
            assert ("repro.core.types", "MonitorState") in named
