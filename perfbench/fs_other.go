//go:build !linux

package main

import "runtime"

func fsType(string) string { return "unknown" }

func settle() { runtime.GC() }
