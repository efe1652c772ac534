package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuModel reads the processor brand string with CPUID (leaves
// 0x80000002-4), so the fingerprint needs no file outside the checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.Trim(string(b), " \x00")
}
