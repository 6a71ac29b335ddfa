"""Fresh-interpreter helpers for the benchmark.

    python3 perfbench/child.py setup <workload> <seed>
        Import holebox.cli, load the lemma library and build the
        workload's inputs, then print "ready".  The parent times this
        from process start to the "ready" line: that is setup_s.

    python3 perfbench/child.py cli [--spans FILE] -- <holebox argv...>
        One `holebox` command-line invocation run from the source tree.
        With --spans, the tracer is installed after import and its spans
        are written to FILE when the command returns.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        import holebox.cli  # noqa: F401
        from holebox.tactics.rewrite import default_library
        from workloads import WORKLOADS
        default_library()
        WORKLOADS[argv[1]](int(argv[2]))
        print("ready", flush=True)
        return 0
    if argv[:1] == ["cli"] and "--" in argv:
        sep = argv.index("--")
        opts, args = argv[1:sep], argv[sep + 1:]
        import holebox.cli as cli
        tracer = None
        if opts[:1] == ["--spans"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        code = cli.cli_main(args)
        if tracer is not None:
            tracer.write(opts[1])
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
