#!/usr/bin/env python3
"""Command-line regression test for the gcd2_serve CLI.

Usage: check_serve_cli.py [path/to/gcd2_serve]

Every argument case runs the binary with a malformed (or trivial)
command line, which triggers no compile, and checks the exit status plus
the presence/absence of the usage text:
  - a value-taking flag in final position (--dir, --workers, --repeat,
    --max-artifact-bytes) must print "needs a value" plus usage and
    exit 2, not read past argv;
  - an unknown flag must be rejected with usage and exit 2, not be
    swallowed as a model name;
  - `--target-ms 5` must be rejected as an unknown flag with exit 2:
    the service compiles with exactly the options it keys, so there is
    no wall-clock budget flag;
  - --help / -h must print usage on stdout and exit 0;
  - an unknown model name must exit 2.
One serving case compiles the smallest zoo model (WDSR-b) once:
  - `--workers 2 --repeat 2 WDSR-b` must serve the repeat from the
    in-memory model cache (`path=model-cache`), not coalesce it onto
    the compile in flight.
Registered as a ctest (serve_cli_args) so the full suite covers it.
"""
import subprocess
import sys


def run(binary: str, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [binary] + args, capture_output=True, text=True, timeout=120
    )


def main() -> int:
    binary = sys.argv[1] if len(sys.argv) > 1 else "./build/tools/gcd2_serve"
    failures = 0

    def check(label, args, want_exit, want_stderr="", want_stdout=""):
        nonlocal failures
        proc = run(binary, args)
        problems = []
        if proc.returncode != want_exit:
            problems.append(
                f"exit {proc.returncode}, want {want_exit}")
        if want_stderr and want_stderr not in proc.stderr:
            problems.append(f"stderr missing {want_stderr!r}")
        if want_stdout and want_stdout not in proc.stdout:
            problems.append(f"stdout missing {want_stdout!r}")
        if problems:
            print(f"FAIL: {label} ({'; '.join(problems)})",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"ok: {label}")

    for flag in ["--dir", "--workers", "--repeat", "--max-artifact-bytes"]:
        check(f"{flag} without value", [flag], 2,
              want_stderr="needs a value")
        # The usage text must accompany the error.
        proc = run(binary, [flag])
        if "usage:" not in proc.stderr:
            print(f"FAIL: {flag} without value printed no usage",
                  file=sys.stderr)
            failures += 1
    check("unknown flag", ["--bogus"], 2, want_stderr="unknown flag")
    check("unknown flag with usage", ["--bogus"], 2,
          want_stderr="usage:")
    check("unknown short flag", ["-x"], 2, want_stderr="unknown flag")
    check("--target-ms is not a flag", ["--target-ms", "5"], 2,
          want_stderr="unknown flag")
    check("--help", ["--help"], 0, want_stdout="usage:")
    check("-h", ["-h"], 0, want_stdout="usage:")
    check("unknown model", ["no-such-model"], 2,
          want_stderr="unknown model")
    check("repeat served from the model cache",
          ["--workers", "2", "--repeat", "2", "WDSR-b"], 0,
          want_stdout="path=model-cache")

    if failures:
        print(f"check_serve_cli: {failures} failure(s)", file=sys.stderr)
        return 1
    print("check_serve_cli: all CLI cases handled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
