#!/usr/bin/env bash
# check_arm64_fma.sh — every fused multiply-add in the arm64 build of
# internal/mat, internal/nn and internal/plm must come from a math.FMA call.
#
# Every kernel tier takes each product-accumulate step as one fused
# multiply-add, and the Go loops spell that step math.FMA (DESIGN.md §20).
# The Go spec also lets the arm64 compiler fuse a plain x*y + z on its own,
# which would make an arm64 loop round once where the amd64 build of the
# same loop rounds twice. plmvet's roundedproduct rule catches the direct
# shapes; this listing check also catches a product fused across
# statements. It compiles each package for arm64 with -S, maps every
# FMADDD/FMSUBD/FNMADDD/FNMSUBD (and S forms) to its source line, and fails
# when that line holds no math.FMA( call.
#
# Usage (from anywhere inside the repo; CI runs it verbatim):
#
#   scripts/check_arm64_fma.sh
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

status=0
for p in mat nn plm; do
	asm=$(GOARCH=arm64 go build -a -gcflags="repro/internal/$p=-S" "./internal/$p/" 2>&1)
	grep -q 'STEXT' <<<"$asm" || { echo "no assembly listing for internal/$p"; exit 1; }
	# "(/abs/path/file.go:123)" of every fused instruction, once per line.
	positions=$(grep -E '\sFN?M(ADD|SUB)[DS]\s' <<<"$asm" | sed -E 's/^[^(]*\(([^)]*)\).*/\1/' | sort -u || true)
	n=0
	while read -r pos; do
		[ -n "$pos" ] || continue
		n=$((n + 1))
		src=$(sed -n "${pos##*:}p" "${pos%:*}")
		if ! grep -q 'math\.FMA(' <<<"$src"; then
			echo "internal/$p: fused instruction from $pos, which has no math.FMA call:"
			echo "    $src"
			status=1
		fi
	done <<<"$positions"
	echo "internal/$p: $n source lines compile to fused instructions"
	# The GEMM loops alone hold a dozen math.FMA calls: no fused
	# instruction at all means the listing or the pattern is broken.
	if [ "$p" = mat ] && [ "$n" -eq 0 ]; then
		echo "internal/mat: no fused instruction found in the listing"
		status=1
	fi
done
exit "$status"
