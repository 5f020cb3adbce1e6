"""nets-sweep's black box: a spiral oracle served on stdin/stdout."""

from copysampler import Spiral2DOracle, serve_stdio

if __name__ == "__main__":
    serve_stdio(Spiral2DOracle(turns=1.5))
