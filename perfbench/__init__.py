"""Layered benchmark of the polyball command line.

``run.py`` drives generated requests in-process through ``polyball.cli.main``
and prints end-to-end metrics; with ``--trace 1`` it also times the public
functions of every package module from wrappers installed by ``tracer``.
See README.md in this directory.
"""
