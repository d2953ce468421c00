"""Enable ``python -m repro ...`` as an alias for the repro-ipcp CLI."""

import sys

from repro.cli import entry_point

if __name__ == "__main__":
    sys.exit(entry_point())
