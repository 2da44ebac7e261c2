"""`python -m gradevade ...` runs the command line, as the `gradevade` script does."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
