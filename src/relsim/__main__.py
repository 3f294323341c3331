"""Entry point for `python -m relsim`."""

from .cli import main

if __name__ == "__main__":
    main()
