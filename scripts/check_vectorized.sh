#!/usr/bin/env bash
# Fail when the AVX2 build of the GRU gate epilogue or of the sigmoid /
# tanh slice kernels converts a float to an integer one lane at a time.
#
# A scalar `cvttss2si` inside a `#[target_feature]` wrapper means some step
# of the body (such as a saturating `as i32` cast) has no packed form, so
# LLVM took the loop apart lane by lane: the kernel still gives the right
# bits but runs at a fraction of the tier's width, which no test notices.
#
# The script builds the release st-tensor unit-test binary, disassembles it
# with objdump, and checks the `avx2` wrapper that `dispatch::tiered!`
# emits for each kernel. A wrapper that cannot be found
# fails the check too, so a rename cannot turn it into a silent pass.
#
# Usage: scripts/check_vectorized.sh   (from anywhere in the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

kernels=(infer::gru_gates_fused_on mathfn::sigmoid_slice_on mathfn::tanh_slice_on)
tiers=(avx2)

bin=$(cargo test --release -q -p st-tensor --lib --no-run --message-format=json |
    grep '"name":"st_tensor"' | grep -o '"executable":"[^"]*"' | cut -d'"' -f4 | tail -n1)
if [[ -z "$bin" ]]; then
    echo "check_vectorized: no st-tensor test binary was built" >&2
    exit 1
fi

# Per function: its demangled name and how many scalar conversions it holds.
counts=$(objdump -d --no-show-raw-insn -C "$bin" | awk '
    /^[0-9a-f]+ <.*>:$/ { name = substr($0, index($0, "<") + 1); sub(/>:$/, "", name); n[name] += 0; next }
    /cvttss2si/ { n[name]++ }
    END { for (f in n) print n[f] "\t" f }')

status=0
for k in "${kernels[@]}"; do
    for t in "${tiers[@]}"; do
        fn="st_tensor::${k}::${t}"
        line=$(grep -P "\t\Q${fn}\E$" <<<"$counts" || true)
        if [[ -z "$line" ]]; then
            echo "MISSING  ${fn}: wrapper not found in ${bin}"
            status=1
        elif [[ "${line%%$'\t'*}" != 0 ]]; then
            echo "SCALAR   ${fn}: ${line%%$'\t'*} cvttss2si"
            status=1
        else
            echo "ok       ${fn}: no scalar float-to-int conversion"
        fi
    done
done
exit $status
