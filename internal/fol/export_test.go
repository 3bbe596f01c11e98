package fol

// SolveNaive and SetObserver open the naive grounder and the stream of
// problems Solve is given to this package's external tests, which build
// problems through the packages that import fol.
var SolveNaive = solveNaive

func SetObserver(f func(*Problem)) { observe = f }
