"""Run the command-line front end: ``python -m homoglab <command> --config <file>``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
