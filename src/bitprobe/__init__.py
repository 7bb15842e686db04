"""Bit-probe membership schemes with one-sided error and a cached seed word.

The package binds no names: import its modules (``from bitprobe import scheme_one``)."""
