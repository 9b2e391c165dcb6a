"""Per-layer attribution of one application run.

A profile hook, installed on every thread for the length of one run,
splits the host CPU time of the run among the simulator's layers and
counts the Python calls made into each.  The layers are groups of the
``repro`` package's modules:

* ``programs`` -- the simulated user programs (``repro.programs``).
* ``agents`` -- the interposition agents (``repro.agents``).
* ``toolkit`` -- the agent toolkit's boilerplate, numeric, symbolic,
  descriptor and pathname layers (``repro.toolkit``).
* ``kernel.dispatch`` -- the trap, the htg downcall and the compiled
  chains (``kernel.trap``, ``kernel.compile``, ``kernel.fastpath``,
  ``kernel.sysent``, ``toolkit.compile_support`` and
  ``Kernel.do_syscall``).
* ``kernel.syscalls`` -- the system call implementations and what they
  stand on: namei, the name cache, UFS, inodes, open files, pipes, the
  journal, and the rest of ``repro.kernel``.
* ``kernel.proc`` -- process lifecycle: spawn, exec image load, exit,
  reap, signals and sleep/wakeup (``kernel.proc``, ``kernel.signals``,
  ``kernel.syscalls.process`` and those methods of ``Kernel``).
* ``obs`` -- observability (``repro.obs``).

Time in any other code (the standard library, the workload set-up, this
benchmark) belongs to no layer and is not reported.

A layer's self time is the thread CPU time (``time.thread_time``)
spent while the innermost Python frame belongs to it, so a thread
blocked on the kernel lock or asleep adds nothing.  Blocking is
reported apart: ``wait_s`` is the wall-clock time threads spend inside
``Kernel.sleep_until``, summed over threads.  ``builds`` and
``build_s`` count the calls to the dispatch-table builders and their
inclusive CPU time.

The hook charges time only when a call or return crosses a layer
boundary.  Each crossing at CPU time ``t`` adds ``t`` to the layer left
and subtracts it from the layer entered; on one thread these terms
telescope to the summed lengths of that layer's intervals, so no
per-thread state is needed.
"""

import os
import sys
import threading
import time

LAYERS = (
    "programs",
    "agents",
    "toolkit",
    "kernel.dispatch",
    "kernel.syscalls",
    "kernel.proc",
    "obs",
)
_OTHER = len(LAYERS)
_INDEX = {name: index for index, name in enumerate(LAYERS)}

#: (path prefix within the repro package, layer); first match wins
_MODULE_LAYERS = (
    ("programs/", "programs"),
    ("agents/", "agents"),
    ("toolkit/compile_support.py", "kernel.dispatch"),
    ("toolkit/", "toolkit"),
    ("kernel/trap.py", "kernel.dispatch"),
    ("kernel/compile.py", "kernel.dispatch"),
    ("kernel/fastpath.py", "kernel.dispatch"),
    ("kernel/sysent.py", "kernel.dispatch"),
    ("kernel/proc.py", "kernel.proc"),
    ("kernel/signals.py", "kernel.proc"),
    ("kernel/syscalls/process.py", "kernel.proc"),
    ("kernel/kernel.py", None),  # by method, see _KERNEL_METHODS
    ("kernel/", "kernel.syscalls"),
    ("obs/", "obs"),
)

#: methods of ``Kernel`` outside kernel.syscalls (the rest of
#: kernel.py: file helpers, open-file construction, mounts)
_KERNEL_METHODS = {
    "do_syscall": "kernel.dispatch",
    **{name: "kernel.proc" for name in (
        "load_image_locked", "spawn_child_locked", "finish_exit_locked",
        "reap_locked", "_alloc_pid_locked", "_create_initial_process",
        "_start_process_thread", "_process_thread", "_record_panic",
        "_join_all", "_raise_panics", "run", "run_entry",
        "sleep_until", "_sleep_until_recorded", "wakeup",
        "_live_count_locked", "_check_alarm_locked",
        "_fire_earliest_alarm_locked", "post_signal", "take_signal",
        "terminate", "stop_process", "find_process_locked",
        "live_processes_locked", "process_count",
    )},
}

_WAIT = 1
_BUILD = 2
#: (module path, function name) of the functions timed whole
_SPECIAL = {
    ("kernel/kernel.py", "sleep_until"): _WAIT,
    ("kernel/trap.py", "build_fast_dispatch"): _BUILD,
    ("kernel/compile.py", "build_compiled_dispatch"): _BUILD,
}


class LayerTracer:
    """Self time and call counts per layer for one run; see the module
    docstring.  Use :meth:`tracing` around the run, then :meth:`result`."""

    def __init__(self, package_dir):
        self._package = os.path.join(os.path.abspath(package_dir), "")
        self._layer_of = {}
        self._special_of = {}
        self._self = [0.0] * (_OTHER + 1)
        self._calls = [0] * (_OTHER + 1)
        self._wait = 0.0
        self._builds = 0
        self._build = 0.0

    def _classify(self, code):
        path = code.co_filename
        layer = _OTHER
        if path.startswith(self._package):
            rel = path[len(self._package):].replace(os.sep, "/")
            for prefix, name in _MODULE_LAYERS:
                if rel.startswith(prefix):
                    if name is None:
                        method = code.co_qualname.split(".")
                        name = _KERNEL_METHODS.get(
                            method[1] if len(method) > 1 else "",
                            "kernel.syscalls")
                    layer = _INDEX[name]
                    break
            special = _SPECIAL.get((rel, code.co_name))
            if special is not None:
                self._special_of[code] = special
        self._layer_of[code] = layer
        return layer

    def _layer(self, code):
        layer = self._layer_of.get(code)
        return self._classify(code) if layer is None else layer

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered = self._layer(code)
            self._calls[entered] += 1
            back = frame.f_back
            left = _OTHER if back is None else self._layer(back.f_code)
            entering = True
        elif event == "return":
            code = frame.f_code
            left = self._layer(code)
            back = frame.f_back
            entered = _OTHER if back is None else self._layer(back.f_code)
            entering = False
        else:
            return
        if left != entered:
            now = time.thread_time()
            self._self[left] += now
            self._self[entered] -= now
        special = self._special_of.get(code)
        if special == _WAIT:
            now = time.perf_counter()
            self._wait += -now if entering else now
        elif special == _BUILD:
            now = time.thread_time()
            self._builds += entering
            self._build += -now if entering else now

    def tracing(self):
        """Context manager: the hook is on, on every thread, inside it."""
        return _Installed(self._hook)

    def result(self):
        """The run's numbers, keyed by metric name (without the stack)."""
        out = {}
        for index, name in enumerate(LAYERS):
            out[name + ".self_s"] = self._self[index]
            out["calls." + name] = self._calls[index]
        out["kernel.proc.wait_s"] = self._wait
        out["kernel.dispatch.builds"] = self._builds
        out["kernel.dispatch.build_s"] = self._build
        return out


class _Installed:
    def __init__(self, hook):
        self._hook = hook

    def __enter__(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)
        return False
