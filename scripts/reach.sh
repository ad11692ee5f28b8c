#!/usr/bin/env bash
# Public items nothing else reads. For every `pub fn|struct|enum|trait|
# const|type` defined under crates/*/src (the figure harness and the
# offline shims excepted) and src, print the ones whose name no *other*
# .rs file under crates, src, tests, examples, perfbench/src or
# perfbench/tests mentions. A crate's lib.rs re-exporting an item does not
# count as reading it. Matching is by bare name, so a method called `new`
# is never listed (some other file says `new`) — the list has no false
# alarms about items that are read, but it is not exhaustive. An entry is a
# candidate for deletion or for losing its `pub`; `--max N` makes the list a
# gate: exit non-zero when it holds more than N items. What is left at the
# floor are types other crates use without naming (a pub fn's return type,
# a pub field's type) and facade methods only this package's own files call.
set -euo pipefail
cd "$(dirname "$0")/.."

max=
if [ "${1:-}" = "--max" ]; then
    max=${2:?--max needs a count}
fi
export REACH_MAX=$max

find crates src tests examples perfbench/src perfbench/tests -name '*.rs' | sort | perl -e '
    my (%readers, %text);
    while (my $path = <STDIN>) {
        chomp $path;
        open(my $fh, "<", $path) or die "$path: $!";
        local $/;
        my $src = <$fh>;
        $text{$path} = $src;
        # Re-exports in a crate root name an item without reading it.
        $src =~ s/\bpub\s+use\b[^;]*;//gs if $path =~ m{(^|/)src/lib\.rs$};
        $readers{$1}{$path} = 1 while $src =~ /\b([A-Za-z_]\w*)\b/g;
    }
    my $unread = 0;
    for my $path (sort keys %text) {
        next unless $path =~ m{^(crates/[^/]+/)?src/};
        next if $path =~ m{^crates/(bench|shims)/};
        while ($text{$path} =~ /^\s*pub\s+(?:(?:const|unsafe|async)\s+)*(fn|struct|enum|trait|const|type)\s+([A-Za-z_]\w*)/mg) {
            my ($kind, $name) = ($1, $2);
            next if grep { $_ ne $path } keys %{ $readers{$name} };
            print "$path: $kind $name\n";
            $unread++;
        }
    }
    print "$unread public item(s) named by no other file\n";
    my $max = $ENV{REACH_MAX};
    if ($max ne "" && $unread > $max) {
        print "over the gate: at most $max allowed — delete the new item, drop its `pub`, or give it a reader\n";
        exit 1;
    }
'
