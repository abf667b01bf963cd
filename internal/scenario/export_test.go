package scenario

// RunTiered exposes the tier-switchable run to the external differential
// tests (fast_wall_test.go), which import the experiment layer's E12 grid
// and so cannot live in this package.
var RunTiered = run
