from taumod.cli import run

run()
