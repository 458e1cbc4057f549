"""`python -m chainlab` and the `chainlab` script: run `chainlab.cli` as a
program, so that each command loads only its own modules."""

import runpy


def main() -> None:
    runpy.run_module("chainlab.cli", run_name="__main__")


if __name__ == "__main__":
    main()
