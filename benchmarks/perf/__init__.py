"""Repository benchmark: campaigns timed end to end, checked bitwise.

See README.md in this directory; the entry point is :mod:`.run`.
"""
