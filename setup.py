"""Setup shim.

Carries no package metadata. The supported setup is
``export PYTHONPATH=src`` from the repository root (see the README's
Install section).
"""

from setuptools import setup

setup()
