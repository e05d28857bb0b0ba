// Package clitest smoke-tests every command-line tool end to end: it
// builds all ten binaries and the examples once per test run and
// executes each against a scaled-down spec, asserting exit status,
// non-empty output, and — for the instrumented CLIs — a parseable,
// deterministic metrics artifact. TestCLIGolden pins the tools' flag
// listings, seeded output, error messages and result files byte for
// byte (testdata/golden.txt). After a full run, TestMain fails the suite
// on any registered flag that no invocation passed (unreadFlags).
package clitest
