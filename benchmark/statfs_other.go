//go:build !linux

package main

import "errors"

func statfsMagic(string) (int64, error) { return 0, errors.New("statfs: unsupported platform") }
