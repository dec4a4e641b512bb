package cir

// RefExec is the reference tree-walker (interp_ref_test.go), for the
// cross-checks in package cir_test.
var RefExec = refExec
