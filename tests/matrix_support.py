"""The benchmark's workloads and agent stacks, for tests.

Loads ``perfbench/matrix.py`` (outside the package tree) and runs one
of its workloads under one of its stacks on a kernel the test
configures, so that route-differential tests exercise exactly what the
benchmark runs.
"""

import importlib.util
import os

from repro.workloads import boot_world


def _load_matrix():
    spec = importlib.util.spec_from_file_location(
        "perfbench_matrix", os.path.join(os.path.dirname(__file__), "..",
                                         "perfbench", "matrix.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


matrix = _load_matrix()


def run_workload(name, stack, prepare=None, seed=1, **boot):
    """Boot with *boot* (``boot_world`` keywords), call *prepare* on the
    kernel, set workload *name* up and run it under *stack*; returns
    ``(kernel, wait status)``."""
    workload = matrix.WORKLOADS[name]
    kernel = boot_world(**boot)
    if prepare is not None:
        prepare(kernel)
    workload.module.setup(kernel, seed)
    agents = matrix.build_stack(stack, workload.directory)
    if not agents:
        return kernel, kernel.run(workload.path, list(workload.argv))

    def loader(ctx):
        for agent in agents:
            agent.attach(ctx)
        agents[-1].exec_client(workload.path, list(workload.argv), {})

    return kernel, kernel.run_entry(loader)
