"""Experiment harness: configs, runners and the command-line interface."""
