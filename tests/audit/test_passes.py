"""Positive and negative fixtures for every RL300--RL312 audit pass."""

import textwrap

from repro.audit.engine import audit_files
from repro.audit.model import AuditFile

from repro.lint.diagnostics import Severity


def report(source, path="x.py", **kwargs):
    file = AuditFile(path, textwrap.dedent(source))
    return audit_files([file], **kwargs)


def codes(source, **kwargs):
    return [d.code for d in report(source, **kwargs)]


class TestLockOrderRL300:
    def test_self_deadlock_on_nonreentrant_lock_is_error(self):
        rep = report(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def work(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        (finding,) = [d for d in rep if d.code == "RL300"]
        assert finding.severity is Severity.ERROR
        assert "self-deadlock" in finding.message

    def test_reentrant_lock_reacquire_is_fine(self):
        assert "RL300" not in codes(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.RLock()

                def work(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )

    def test_inverted_order_across_methods_is_cycle(self):
        rep = report(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        (finding,) = [d for d in rep if d.code == "RL300"]
        assert finding.severity is Severity.WARNING
        assert "C._a" in finding.message and "C._b" in finding.message
        # Witness notes name both edges with their acquisition sites.
        assert len(finding.notes) == 2
        assert all("x.py:" in note for note in finding.notes)

    def test_consistent_order_is_clean(self):
        assert "RL300" not in codes(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )

    def test_callee_acquisition_counts_one_level(self):
        rep = report(
            """
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def outer(self):
                    with self._a:
                        self.inner()

                def inner(self):
                    with self._b:
                        pass

                def inverted(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        assert any(d.code == "RL300" for d in rep)


class TestManualAcquireRL301:
    def test_acquire_without_finally_release(self):
        assert "RL301" in codes(
            """
            import threading

            GUARD = threading.Lock()

            def work():
                GUARD.acquire()
                do_things()
                GUARD.release()
            """
        )

    def test_finally_guarded_release_is_fine(self):
        assert "RL301" not in codes(
            """
            import threading

            GUARD = threading.Lock()

            def work():
                GUARD.acquire()
                try:
                    do_things()
                finally:
                    GUARD.release()
            """
        )


class TestUnguardedWriteRL302:
    def test_mixed_guarded_and_unguarded_write(self):
        rep = report(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    self._count = 0
            """
        )
        (finding,) = [d for d in rep if d.code == "RL302"]
        assert "Counter._count" in finding.message
        assert "reset" in finding.message

    def test_all_writes_guarded_is_clean(self):
        assert "RL302" not in codes(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    with self._lock:
                        self._count = 0
            """
        )

    def test_init_writes_do_not_count_as_unguarded(self):
        # __init__ happens-before publication; only post-construction
        # unguarded writers race.
        assert "RL302" not in codes(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1
            """
        )


class TestSleepInAsyncRL303:
    def test_time_sleep_in_coroutine(self):
        assert "RL303" in codes(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """
        )

    def test_from_import_is_resolved(self):
        assert "RL303" in codes(
            """
            from time import sleep

            async def handler():
                sleep(0.1)
            """
        )

    def test_asyncio_sleep_is_fine(self):
        assert "RL303" not in codes(
            """
            import asyncio

            async def handler():
                await asyncio.sleep(0.1)
            """
        )

    def test_nested_sync_def_is_executor_work(self):
        assert "RL303" not in codes(
            """
            import time

            async def handler(loop):
                def blocking():
                    time.sleep(0.1)
                await loop.run_in_executor(None, blocking)
            """
        )


class TestBlockingDbRL304:
    def test_sqlite_connect_and_execute_in_coroutine(self):
        found = codes(
            """
            import sqlite3

            async def handler():
                connection = sqlite3.connect("cache.sqlite")
                connection.execute("SELECT 1")
            """
        )
        assert found.count("RL304") == 2

    def test_compile_entry_points_flagged(self):
        assert "RL304" in codes(
            """
            async def handler(session, query):
                prepared = session.prepare(query)
            """
        )

    def test_sync_function_is_out_of_scope(self):
        assert "RL304" not in codes(
            """
            import sqlite3

            def worker():
                sqlite3.connect("cache.sqlite").execute("SELECT 1")
            """
        )


class TestBlockingIoRL305:
    def test_open_and_read_text_in_coroutine(self):
        found = codes(
            """
            async def handler(path):
                with open(path) as handle:
                    pass
                return path.read_text()
            """
        )
        assert found.count("RL305") == 2

    def test_subprocess_in_coroutine(self):
        assert "RL305" in codes(
            """
            import subprocess

            async def handler():
                subprocess.run(["ls"])
            """
        )

    def test_sync_io_is_out_of_scope(self):
        assert "RL305" not in codes(
            """
            def loader(path):
                return path.read_text()
            """
        )


class TestSyncLockInAsyncRL306:
    def test_with_threading_lock_in_coroutine(self):
        assert "RL306" in codes(
            """
            import threading

            GUARD = threading.Lock()

            async def handler():
                with GUARD:
                    pass
            """
        )

    def test_manual_acquire_in_coroutine(self):
        assert "RL306" in codes(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                async def handler(self):
                    self._lock.acquire()
            """
        )

    def test_unknown_context_manager_not_flagged(self):
        assert "RL306" not in codes(
            """
            async def handler(session):
                async with session.lock:
                    pass
            """
        )


class TestFutureDroppedRL307:
    def test_bare_submit_statement(self):
        assert "RL307" in codes(
            """
            def kick(pool, work):
                pool.submit(work)
            """
        )

    def test_ensure_future_statement(self):
        assert "RL307" in codes(
            """
            import asyncio

            def kick(coroutine):
                asyncio.ensure_future(coroutine)
            """
        )

    def test_kept_future_is_fine(self):
        assert "RL307" not in codes(
            """
            def kick(pool, work):
                future = pool.submit(work)
                return future
            """
        )


class TestDoneCallbackRL308:
    def test_callback_ignoring_outcome(self):
        assert "RL308" in codes(
            """
            def wire(future, log):
                future.add_done_callback(lambda f: log("done"))
            """
        )

    def test_callback_consulting_exception_is_fine(self):
        assert "RL308" not in codes(
            """
            def wire(future, ticket):
                future.add_done_callback(
                    lambda f: ticket.release(error=f.exception() is not None)
                )
            """
        )

    def test_module_level_callback_resolved(self):
        assert "RL308" in codes(
            """
            def on_done(future):
                print("finished")

            def wire(future):
                future.add_done_callback(on_done)
            """
        )

    def test_unresolvable_callback_not_flagged(self):
        assert "RL308" not in codes(
            """
            def wire(future, handler):
                future.add_done_callback(handler)
            """
        )


class TestSpawnUnpicklableRL309:
    def test_lambda_submitted_to_process_pool(self):
        assert "RL309" in codes(
            """
            from concurrent.futures import ProcessPoolExecutor

            def go():
                pool = ProcessPoolExecutor()
                pool.submit(lambda: 1)
            """
        )

    def test_initargs_capturing_self(self):
        assert "RL309" in codes(
            """
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def go(self):
                    pool = ProcessPoolExecutor(
                        initializer=setup, initargs=(self,)
                    )
            """
        )

    def test_module_level_function_is_fine(self):
        assert "RL309" not in codes(
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(item):
                return item

            def go(items):
                pool = ProcessPoolExecutor(initializer=work)
                for item in items:
                    future = pool.submit(work, item)
            """
        )

    def test_thread_pool_is_out_of_scope(self):
        # Threads share memory: lambdas and bound methods are fine.
        assert "RL309" not in codes(
            """
            from concurrent.futures import ThreadPoolExecutor

            def go():
                pool = ThreadPoolExecutor()
                future = pool.submit(lambda: 1)
                return future
            """
        )


class TestLoopNotClosedRL310:
    def test_new_loop_without_close(self):
        assert "RL310" in codes(
            """
            import asyncio

            def run(main):
                loop = asyncio.new_event_loop()
                loop.run_until_complete(main)
            """
        )

    def test_close_in_finally_is_fine(self):
        assert "RL310" not in codes(
            """
            import asyncio

            def run(main):
                loop = asyncio.new_event_loop()
                try:
                    loop.run_until_complete(main)
                finally:
                    loop.close()
            """
        )


class TestRunForeverNoJoinRL311:
    def test_run_forever_without_join_path(self):
        assert "RL311" in codes(
            """
            class Server:
                def run(self, loop):
                    loop.run_forever()
            """
        )

    def test_join_anywhere_in_class_is_fine(self):
        assert "RL311" not in codes(
            """
            class Server:
                def run(self, loop):
                    loop.run_forever()

                def stop(self):
                    self._thread.join(timeout=30)
            """
        )


class TestUnboundedWaitRL312:
    def test_result_without_timeout_is_info(self):
        rep = report(
            """
            def wait_on(future):
                return future.result()
            """
        )
        (finding,) = [d for d in rep if d.code == "RL312"]
        assert finding.severity is Severity.INFO

    def test_info_does_not_gate_strict(self):
        rep = report(
            """
            def wait_on(future):
                return future.result()
            """
        )
        assert rep.exit_code(strict=True) == 0

    def test_timeout_is_fine(self):
        assert "RL312" not in codes(
            """
            def wait_on(future):
                return future.result(timeout=30)
            """
        )

    def test_non_concurrency_receiver_ignored(self):
        assert "RL312" not in codes(
            """
            def fetch(connection):
                return connection.result()
            """
        )
