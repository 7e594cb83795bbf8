"""``python -m pognac``: the same command line as ``pognac``."""

from .cli import main

if __name__ == "__main__":
    main()
