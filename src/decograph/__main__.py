"""Run the decograph command line as ``python -m decograph``."""

from .cli import main

if __name__ == "__main__":
    main()
